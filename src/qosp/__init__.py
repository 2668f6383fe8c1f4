"""Exact verification kernel for the twisted osp(1|2) matrix constructions.

Modules:

* scalar     -- the ring Q[s, s^-1][theta, xi] (q = s**2) and the contraction
* report     -- Check and Report, the results every suite returns
* gmatrix    -- graded matrices, Koszul-signed tensor products, YBE checks,
                products and their xi**k slices
* reps       -- spin-j modules of osp(1|2), sigma and the FRT generators
* coproducts -- coproduct maps, the even twist, twist conjugation,
                Hopf-level checks
* phi        -- order-by-order solver for the odd twist series
* matrices   -- the explicit 9x9 R-matrices and twist factors, built on
                the modules above
* cli        -- command-line front end
"""

__version__ = "0.1.0"

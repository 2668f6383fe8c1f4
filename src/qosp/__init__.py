"""Exact verification kernel for the twisted osp(1|2) matrix constructions.

Modules:

* scalar     -- rational-function field in s (q = s**2), theta, xi
* report     -- Check and Report, the results every suite returns
* gmatrix    -- graded matrices, Koszul-signed tensor products, YBE checks
* reps       -- spin-j modules of osp(1|2), sigma and the FRT generators
* matrices   -- the explicit 9x9 R-matrices and twist factors
* coproducts -- coproduct maps, twist conjugation, Hopf-level checks
* _xiseries  -- rational xi series through an order, phi's private kernel
* phi        -- order-by-order solver for the odd twist series
* cli        -- command-line front end
"""

__version__ = "0.1.0"

"""Golden fixture files written from the built matrices, for QOSP_FIXTURES tests."""

import json
import os

from qosp.gmatrix import to_json_dict


def write_fixture(name, matrix, directory):
    """Write matrix as directory/<name>.json in the golden fixture format."""
    path = os.path.join(directory, "%s.json" % name)
    with open(path, "w") as fh:
        json.dump(to_json_dict(matrix), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path

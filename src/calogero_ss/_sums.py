"""Left-to-right summation; Python 3.12 made sum() of floats compensated."""

import sys
from functools import reduce
from operator import add


def _in_order(values):
    return reduce(add, values, 0)


# before 3.12, sum() adds 0 + v_1 + v_2 + ... in this order, and faster
lsum = sum if sys.version_info < (3, 12) else _in_order

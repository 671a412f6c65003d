"""Exact solver and verifier for the fourth-order rational recurrence

    x_{n+1} = x_{n-3} x_n / (x_{n-2} (a_n + b_n x_{n-3} x_n))

with closed-form evaluation via its reduction to the first-order linear
recurrence V_{n+1} = a_n V_n + b_n, where V_n = 1/(x_{n-3} x_n).
"""

__version__ = "0.1.0"

"""The callback RK4 that ``matcore.rk4`` replaced, kept as a test oracle."""


def rk4(fn, v, a, b, n):
    """Classical fourth-order Runge-Kutta for v' = fn(t, v): n equal steps from a to b."""
    h = (b - a) / n
    t = a
    for _ in range(n):
        k1 = fn(t, v)
        k2 = fn(t + h / 2.0, v + (h / 2.0) * k1)
        k3 = fn(t + h / 2.0, v + (h / 2.0) * k2)
        k4 = fn(t + h, v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return v

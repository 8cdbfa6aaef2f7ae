"""Exact arithmetic: Gaussian binary fractions and the division-free recursion.

A double is a binary fraction, an integer times a power of two, and sums,
differences and products of binary fractions are binary fractions again.
:class:`Dyadic` holds a complex one, (re + i im) 2^e with integers re, im
and e, so a member of the class rebuilt from double inputs stays exact.

:func:`recursion` is the coefficient recursion of
:func:`qstar.starlike.recursion_coeffs` with its divisions multiplied out:
A_n = a_n D_2 ... D_n.  It uses only +, - and *, and reads its weights and
divisors from :func:`qstar.series.class_sequences`, so the same code runs
over :class:`Dyadic` and over Python ints (at zeta = 1, where [n] = n).
"""

from .series import class_sequences


class Dyadic:
    """(re + i im) 2^e with integers re, im and e, exact under +, - and *.

    An int operand is coerced on the reflected operators only: ``1 + x`` and
    ``2 * x`` are Dyadic, and ``x + 1`` is an error.
    """

    __slots__ = ("re", "im", "e")

    def __init__(self, re, im=0, e=0):
        self.re, self.im, self.e = re, im, e

    @classmethod
    def of(cls, z):
        """``z``, a complex or a real double (Python's or numpy's), exactly."""
        (mr, dr), (mi, di) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
        scale = max(dr, di)  # both are powers of two
        return cls(mr * (scale // dr), mi * (scale // di), 1 - scale.bit_length())

    def __add__(self, other):
        x, y = (self, other) if self.e <= other.e else (other, self)
        s = y.e - x.e
        return Dyadic(x.re + (y.re << s), x.im + (y.im << s), x.e)

    def __sub__(self, other):
        return self + Dyadic(-other.re, -other.im, other.e)

    def __mul__(self, other):
        return Dyadic(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re, self.e + other.e)

    def __radd__(self, other):
        return Dyadic(other) + self

    def __rmul__(self, other):
        return Dyadic(other * self.re, other * self.im, self.e)

    def norm(self):
        """|x|^2, a real Dyadic."""
        return Dyadic(self.re * self.re + self.im * self.im, 0, 2 * self.e)

    def ratio(self, other) -> float:
        """self / other of real Dyadics, other != 0, correctly rounded to a float."""
        e = self.e - other.e
        return (self.re << e) / other.re if e >= 0 else self.re / (other.re << -e)


def recursion(b, zeta, s, order: int) -> tuple:
    """(A, w, d): A[n] = a_n D_2 ... D_n for n = 1..order (A[0] = 0), and the
    weights w and divisors d of :func:`qstar.series.class_sequences`
    (w[k - 1] = s + [k], d[k - 1] = D_k), all in the arithmetic of ``b``,
    ``zeta`` and ``s = 1 - 2 alpha``.

    ``b[k]`` is the Schwarz coefficient b_k, for k = 1..order - 1.
    Multiplying D_n a_n = sum_k b_(n-k) w_k a_k by D_2 ... D_(n-1) gives
    A_n = sum_k b_(n-k) w_k A_k D_(k+1) ... D_(n-1), summed by Horner over k.
    """
    w, d = class_sequences(zeta, s, order)
    a, wa = [0, 1], [0, w[0]]  # wa[k] = w_k A_k
    for n in range(2, order + 1):
        acc = b[n - 1] * wa[1]
        for k in range(2, n):
            acc = acc * d[k - 1] + b[n - k] * wa[k]
        a.append(acc)
        wa.append(w[n - 1] * acc)
    return a, w, d


__all__ = ["Dyadic", "recursion"]

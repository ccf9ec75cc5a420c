"""
Gamma values on the Riemann sphere
==================================

Exact where the value has a closed rational (or rational-times-sqrt-pi)
form, extended-precision float everywhere else, and poles as first-class
infinities instead of exceptions.
"""

from fractions import Fraction

from hypersum import Scalar, gamma, gamma_ratio, pochhammer

# integers and half-integers have exact gamma values
print("Gamma(5)    =", gamma(Scalar.exact(5)))
print("Gamma(1/2)  =", gamma(Scalar.exact(Fraction(1, 2))))
print("Gamma(-3/2) =", gamma(Scalar.exact(Fraction(-3, 2))))

# nonpositive integers are poles: the point at infinity, not an error
print("Gamma(-2)   =", gamma(Scalar.exact(-2)))

# everything else goes through the float path, here at 128 bits
print("Gamma(3.7)  =", gamma(Scalar.from_float(Fraction(37, 10), prec=128)))

# ratios of gammas with integer argument difference reduce to Pochhammer
# products, which survive pole/pole cancellation exactly:
# Gamma(-3)/Gamma(-5) = (-5)(-4) = 20
x, y = Scalar.exact(-3), Scalar.exact(-5)
print("Gamma(-3)/Gamma(-5) =", gamma_ratio(x, y))

# the rising factorial itself, including the negative-index extension
a = Scalar.exact(Fraction(1, 4))
print("(1/4)_3  =", pochhammer(a, 3))
print("(1/4)_-2 =", pochhammer(a, -2))

"""Nonlinearity specifications: the perturbing field evaluated pointwise on the grid.

Four kinds are supported:

cubic_focusing     P(u) = i |u|^2 u, the one-term polynomial CUBIC_TERM
smoothed_monomial  P(u) = -gr * f_p(|u|^2) u - i gi * f_q(|u|^2) u
diagonal           P_k(v) = gamma_k v_k directly in mode coordinates
polynomial         finite sum of monomials in u, conj(u) and first derivatives

f_r is the C^2 surrogate of x^r: equal to x^r for x >= 1 and to the unique
quintic on [0, 1] that matches value and first two derivatives at 1 and
vanishes to second order at 0.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, check_int, check_keys, check_list, check_real


def smoothed_power_coefficients(p):
    """Quintic coefficients (a3, a4, a5) of the [0, 1] piece of f_p."""
    A = np.array([[1.0, 1.0, 1.0],
                  [3.0, 4.0, 5.0],
                  [6.0, 12.0, 20.0]])
    rhs = np.array([1.0, p, p * (p - 1.0)])
    return np.linalg.solve(A, rhs)


def smoothed_power(x, p):
    """f_p(x): x^p above 1, C^2 quintic splice on [0, 1], zero to 2nd order at 0."""
    x = np.asarray(x, dtype=float)
    a3, a4, a5 = smoothed_power_coefficients(p)
    inner = x ** 3 * (a3 + x * (a4 + x * a5))
    return np.where(x >= 1.0, np.maximum(x, 1e-300) ** p, inner)


def _complex_part(doc, where, keys=("re", "im")):
    """re + i im of a config object that holds re, im and nothing outside keys."""
    check_keys(where, doc, keys, required=("re", "im"))
    return complex(check_real(doc["re"], f"{where}.re"), check_real(doc["im"], f"{where}.im"))


@dataclass(frozen=True)
class MonomialFactor:
    """One factor of a monomial: u or conj(u), optionally a first derivative."""

    conjugate: bool = False
    derivative: int | None = None  # axis index, None for the field itself

    def to_document(self):
        return {"conjugate": self.conjugate, "derivative": self.derivative}

    @staticmethod
    def from_document(doc, where="factor"):
        check_keys(where, doc, ("conjugate", "derivative"))
        conjugate, deriv = doc.get("conjugate", False), doc.get("derivative")
        if not isinstance(conjugate, bool):
            raise ConfigError(f"conjugate must be true or false, got {conjugate!r}")
        return MonomialFactor(conjugate,
                              None if deriv is None else check_int(deriv, "derivative", 0))


@dataclass(frozen=True)
class MonomialTerm:
    coefficient: complex
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficient", complex(self.coefficient))
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ConfigError("monomial term needs at least one factor")

    @property
    def degree(self):
        return len(self.factors)

    @property
    def pattern(self):
        """Sign pattern for resonance enumeration: +1 plain, -1 conjugated."""
        return tuple(-1 if f.conjugate else 1 for f in self.factors)

    def uses_derivatives(self):
        return any(f.derivative is not None for f in self.factors)

    def to_document(self):
        return {"re": self.coefficient.real, "im": self.coefficient.imag,
                "factors": [f.to_document() for f in self.factors]}

    @staticmethod
    def from_document(doc, where="term"):
        return MonomialTerm(_complex_part(doc, where, ("re", "im", "factors")),
                            tuple(MonomialFactor.from_document(f, at) for at, f
                                  in check_list(doc.get("factors", []), f"{where}.factors")))


CUBIC_TERM = MonomialTerm(1j, (MonomialFactor(), MonomialFactor(conjugate=True), MonomialFactor()))


def cubic_damping_terms(z):
    """The mixing family P(u) = -u + z f_1(|u|^2) u with Re z <= 0, Im z <= 0."""
    z = complex(z)
    if z.real > 0 or z.imag > 0:
        raise ConfigError("mixing family needs Re z <= 0 and Im z <= 0")
    return (MonomialTerm(-1.0, (MonomialFactor(),)),
            MonomialTerm(z, (MonomialFactor(), MonomialFactor(conjugate=True), MonomialFactor())))


@dataclass(frozen=True)
class NonlinearitySpec:
    """What perturbs the linear flow, plus the dissipation coefficient mu >= 0."""

    kind: str
    mu: float = 0.0
    # smoothed_monomial parameters
    gr: float = 0.0
    gi: float = 0.0
    p: float = 1.0
    q: float = 1.0
    # diagonal parameters
    gammas: tuple = ()
    # polynomial parameters
    terms: tuple = ()

    def __post_init__(self):
        if self.kind not in ("cubic_focusing", "smoothed_monomial", "diagonal", "polynomial"):
            raise ConfigError(f"unknown nonlinearity kind {self.kind!r}")
        if not (self.mu >= 0.0):
            raise ConfigError(f"dissipation mu must be >= 0, got {self.mu}")
        object.__setattr__(self, "gammas", tuple(complex(g) for g in self.gammas))
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.kind == "diagonal" and not self.gammas:
            raise ConfigError("diagonal kind needs per-mode coefficients")
        if self.kind == "polynomial" and not self.terms:
            raise ConfigError("polynomial kind needs at least one term")
        if self.uses_derivatives() and not self.mu > 0.0:
            raise ConfigError("derivative-dependent nonlinearities require mu > 0")

    def uses_derivatives(self):
        return self.kind == "polynomial" and any(t.uses_derivatives() for t in self.terms)

    @property
    def is_polynomial(self):
        return self.kind in ("cubic_focusing", "polynomial")

    def polynomial_terms(self):
        if self.kind == "cubic_focusing":
            return (CUBIC_TERM,)
        if self.kind == "polynomial":
            return self.terms
        raise ConfigError(f"nonlinearity kind {self.kind!r} has no monomial expansion")

    @property
    def degree(self):
        return max(t.degree for t in self.polynomial_terms())

    def patterns(self):
        """Distinct sign patterns needed for resonance enumeration."""
        return tuple(sorted({t.pattern for t in self.polynomial_terms()}))

    def pointwise(self, u, gradients, work=None):
        """Evaluate P(grad u, u) on grid values; not defined for the diagonal kind.

        work is three complex arrays shaped like u (fresh when None); the
        result is written into the first and returned.  Every product is an
        explicit ufunc call with the accumulated factor first, acc * conj(base),
        so numpy's temporary elision cannot swap operands on large arrays and
        the rounding does not depend on the batch size.
        """
        if self.kind == "diagonal":
            raise ConfigError("diagonal nonlinearity has no grid evaluation")
        out, acc, scratch = np.empty((3,) + u.shape, dtype=complex) if work is None else work
        if self.kind == "smoothed_monomial":
            r = np.abs(u) ** 2
            return np.multiply(-self.gr * smoothed_power(r, self.p)
                               - 1j * self.gi * smoothed_power(r, self.q), u, out=out)
        for n, term in enumerate(self.polynomial_terms()):
            target = out if n == 0 else acc
            for j, f in enumerate(term.factors):
                base = u if f.derivative is None else gradients[f.derivative]
                if f.conjugate:
                    base = np.conjugate(base, out=scratch)
                np.multiply(term.coefficient if j == 0 else target, base, out=target)
            if n:
                np.add(out, acc, out=out)
        return out

    def to_document(self):
        doc = {"kind": self.kind, "mu": self.mu}
        if self.kind == "smoothed_monomial":
            doc.update(gr=self.gr, gi=self.gi, p=self.p, q=self.q)
        elif self.kind == "diagonal":
            doc["gammas"] = [{"re": g.real, "im": g.imag} for g in self.gammas]
        elif self.kind == "polynomial":
            doc["terms"] = [t.to_document() for t in self.terms]
        return doc

    @staticmethod
    def from_document(doc):
        where = "nonlinearity"
        check_keys(where, doc, {f.name for f in fields(NonlinearitySpec)})
        kind = doc.get("kind")
        kwargs = {"kind": kind, "mu": check_real(doc.get("mu", 0.0), f"{where}.mu")}
        if kind == "smoothed_monomial":
            kwargs.update({key: check_real(doc.get(key, d), f"{where}.{key}")
                           for key, d in (("gr", 0.0), ("gi", 0.0), ("p", 1.0), ("q", 1.0))})
        elif kind == "diagonal":
            kwargs["gammas"] = tuple(_complex_part(g, at) for at, g
                                     in check_list(doc.get("gammas", []), f"{where}.gammas"))
        elif kind == "polynomial":
            kwargs["terms"] = tuple(MonomialTerm.from_document(t, at) for at, t
                                    in check_list(doc.get("terms", []), f"{where}.terms"))
        spec = NonlinearitySpec(**kwargs)
        check_keys(where, doc, spec.to_document())  # and no key of another kind
        return spec

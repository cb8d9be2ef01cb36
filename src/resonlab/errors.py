"""Exception types shared across the package, and the checks that refuse an
outside value: check_int, check_real, check_list and check_reals (integers,
reals, lists, lists of reals), check_seed (RNG seeds) and check_keys (config
objects).  Each value is checked once, by the object that reads it, and is
refused rather than truncated.

This module imports no numpy: cli imports it before --threads has become the
BLAS environment variables.  numpy's integer types are numbers.Integral, so
they pass check_int and check_real without it.
"""

import math
import numbers

_KEY_BITS = 128  # a Philox key is a 128-bit integer


class ConfigError(ValueError):
    """A configuration value is malformed, unknown, or out of its admissible range."""


class ValidationError(RuntimeError):
    """A constructed object failed one of its internal consistency checks."""


class UnsupportedModeError(ConfigError):
    """The requested mode (e.g. exact lattice arithmetic) is not available for this setup."""


class BlowUpError(RuntimeError):
    """A trajectory left the configured safety ball."""

    def __init__(self, tau, norm, bound, member=None):
        self.tau = tau
        self.norm = norm
        self.bound = bound
        self.member = member
        where = f" (member {member})" if member is not None else ""
        super().__init__(f"blow-up at tau={tau:.6g}{where}: |a|={norm:.6g} exceeds bound {bound:.6g}")


class EnsembleError(RuntimeError):
    """Too many ensemble members failed for the summary to be trustworthy."""


class StaleArtifactError(RuntimeError):
    """A referenced artifact does not hash-match the configuration that claims it."""


def check_int(value, name, least=None):
    """value as an int, refused unless it is an integer (a bool is not), and
    >= least when least is given."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def check_real(value, name, least=None):
    """value as a float, refused unless it is a real number (a bool is not), and
    finite and >= least when least is given."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or least is not None and not least <= value < math.inf):
        bound = "" if least is None else f" in [{least:g}, inf)"
        raise ConfigError(f"{name} must be a real number{bound}, got {value!r}")
    return float(value)


def check_list(values, name):
    """(name[i], entry) for each entry of values, refused unless it is a list
    (or tuple); each entry's reader checks it."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {values!r}")
    return [(f"{name}[{i}]", value) for i, value in enumerate(values)]


def check_reals(values, name):
    """values as a tuple of floats, refused unless it is a list of real numbers."""
    return tuple(check_real(value, place) for place, value in check_list(values, name))


def check_seed(seed, name, keys=None):
    """seed as an int, refused unless it is a non-negative integer (a bool is not);
    the base of `keys` member streams must also keep seed + keys - 1 a Philox key."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {seed!r}")
    seed = int(seed)
    if keys is not None and seed + keys - 1 >= 2 ** _KEY_BITS:
        raise ConfigError(f"{name} + {keys - 1} must be below 2**{_KEY_BITS}, "
                          f"the Philox key range, got {name} = {seed}")
    return seed


def check_keys(name, doc, allowed, required=()):
    """Refuse doc unless it is an object whose keys are among allowed and
    include required."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {', '.join(unknown)}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ConfigError(f"{name} is missing required key(s): {', '.join(missing)}")

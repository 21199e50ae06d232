"""The wreath product G wr Z over tail-constant base functions.

The full function group G^Z is not representable; the tail-constant functions
(constant outside a finite window) are the smallest computable class that is
closed under the group operations and contains both the finitely supported
functions and the outputs of the commutator-solving recursion.

Every base function is built by _canonical, the one place that trims its
window to the canonical form (see TailConstantFn); hi is derived, not stored.

Conventions match the finite wreath module: an element is x^k * f with shift
k in Z and f: Z -> G, the product is

    (k1, f1) * (k2, f2) = (k1 + k2, n |-> f1(n) * f2(n + k1)),

so conjugating a base function by the shift generator x gives
(f^x)(n) = f(n - 1): the shift re-indexes by right translation.  In
particular the commutator of a base function psi with x satisfies

    [psi, x](n) = psi(n)^-1 * psi(n - 1),

which is the identity the solver inverts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GroupError
from .perm import Permutation, PermutationGroup


@dataclass(frozen=True)
class TailConstantFn:
    """A map Z -> G: left_tail before lo, window on lo..hi, right_tail after.

    Every function is built by _canonical, so it has one form: the window is
    tight (its first value differs from the left tail, its last from the
    right tail).  A constant function has the empty window at lo = 0; a
    two-tail step keeps an empty window whose lo is the first position with
    the right-tail value.  hi = lo + len(window) - 1 is derived, not stored.
    """

    group: PermutationGroup
    lo: int
    window: tuple[Permutation, ...]  # the values at lo..hi
    left_tail: Permutation
    right_tail: Permutation

    @property
    def hi(self) -> int:
        return self.lo + len(self.window) - 1

    @staticmethod
    def make(group: PermutationGroup, values: dict[int, Permutation],
             left_tail: Permutation | None = None,
             right_tail: Permutation | None = None) -> TailConstantFn:
        identity = group.identity()
        left = left_tail if left_tail is not None else identity
        right = right_tail if right_tail is not None else identity
        if not values and left != right:
            raise GroupError("a two-tail step needs at least one window value")
        lo = min(values, default=0)
        # unlisted positions inside the window default to the identity
        window = [values.get(n, identity)
                  for n in range(lo, max(values, default=-1) + 1)]
        return _canonical(group, lo, window, left, right)

    @staticmethod
    def constant(group: PermutationGroup, value: Permutation) -> TailConstantFn:
        return _canonical(group, 0, (), value, value)

    def value(self, n: int) -> Permutation:
        if n < self.lo:
            return self.left_tail
        if n > self.hi:
            return self.right_tail
        return self.window[n - self.lo]

    def is_identity(self) -> bool:
        return self.has_identity_tails() and not self.window

    def has_identity_tails(self) -> bool:
        identity = self.group.identity()
        return self.left_tail == identity and self.right_tail == identity

    def shift(self, k: int) -> TailConstantFn:
        """The function n |-> value(n + k)."""
        return _canonical(self.group, self.lo - k, self.window,
                          self.left_tail, self.right_tail)

    def pointwise(self, other: TailConstantFn, op) -> TailConstantFn:
        if self.group.degree != other.group.degree:
            raise GroupError("mixed base groups")
        lo = min(self.lo, other.lo)
        # the range is empty only for two empty steps at one lo: keep lo
        window = [op(self.value(n), other.value(n))
                  for n in range(lo, max(self.hi, other.hi, lo) + 1)]
        return _canonical(self.group, lo, window,
                          op(self.left_tail, other.left_tail),
                          op(self.right_tail, other.right_tail))

    def inverted(self) -> TailConstantFn:
        return self.pointwise(self, lambda u, _: u.inverse())

    def __str__(self) -> str:
        inner = ", ".join(f"{n}:{self.value(n)}"
                          for n in range(self.lo, self.hi + 1))
        return f"{{{inner} | L={self.left_tail}, R={self.right_tail}}}"


def _canonical(group, lo, window, left, right) -> TailConstantFn:
    values = list(window)
    while values and values[-1] == right:
        values.pop()
    while values and values[0] == left:
        values.pop(0)
        lo += 1
    if not values and left == right:
        lo = 0
    return TailConstantFn(group, lo, tuple(values), left, right)


@dataclass(frozen=True)
class WreathZElement:
    """x^shift * f, an element of G wr Z with tail-constant base part."""

    shift: int
    fn: TailConstantFn

    @staticmethod
    def base(fn: TailConstantFn) -> WreathZElement:
        return WreathZElement(0, fn)

    @staticmethod
    def shift_power(group: PermutationGroup, k: int) -> WreathZElement:
        return WreathZElement(k, TailConstantFn.constant(group,
                                                         group.identity()))

    @staticmethod
    def identity(group: PermutationGroup) -> WreathZElement:
        return WreathZElement.shift_power(group, 0)

    def is_identity(self) -> bool:
        return self.shift == 0 and self.fn.is_identity()

    def __str__(self) -> str:
        return f"x^{self.shift} {self.fn}"


def wz_multiply(a: WreathZElement, b: WreathZElement) -> WreathZElement:
    fn = a.fn.pointwise(b.fn.shift(a.shift), lambda u, v: u * v)
    return WreathZElement(a.shift + b.shift, fn)


def wz_inverse(a: WreathZElement) -> WreathZElement:
    fn = a.fn.inverted().shift(-a.shift)
    return WreathZElement(-a.shift, fn)


def wz_commutator(a: WreathZElement, b: WreathZElement) -> WreathZElement:
    return wz_multiply(wz_multiply(wz_inverse(a), wz_inverse(b)),
                       wz_multiply(a, b))


def solve_commutator(phi: TailConstantFn,
                     seed: Permutation | None = None) -> TailConstantFn:
    """Find psi with [psi, x] = phi, for finitely supported phi.

    The defining identity [psi, x](n) = psi(n)^-1 psi(n-1) forces, once
    psi(0) is chosen (the seed; the choice is free),

        psi(n+1) = psi(n) * phi(n+1)^-1   for n >= 0,
        psi(-n-1) = psi(-n) * phi(-n)     for n >= 0.

    Identity tails of phi make both recursions eventually constant, so psi is
    tail-constant; non-identity tails would leave the class and are rejected.
    """
    group = phi.group
    if not phi.has_identity_tails():
        raise GroupError(
            "solve_commutator needs identity tails (finite support): "
            "the recursion is eventually periodic, not tail-constant, "
            "otherwise")
    if seed is None:
        seed = group.identity()
    lo = min(phi.lo, 0) - 1
    hi = max(phi.hi, 0)
    values = {0: seed}
    for n in range(0, hi):
        values[n + 1] = values[n] * phi.value(n + 1).inverse()
    for n in range(0, -lo):
        values[-n - 1] = values[-n] * phi.value(-n)
    return TailConstantFn.make(group, values, values[lo], values[hi])


def verify_commutator_solution(phi: TailConstantFn,
                               psi: TailConstantFn) -> bool:
    """Recompute [psi, x] with the generic group operations and compare."""
    x = WreathZElement.shift_power(phi.group, 1)
    got = wz_commutator(WreathZElement.base(psi), x)
    return got.shift == 0 and got.fn == phi


@dataclass
class Depth2Report:
    witness: TailConstantFn
    verified: bool
    note: str


def depth2_witness(phi: TailConstantFn,
                   seed: Permutation | None = None) -> Depth2Report:
    """Exhibit phi as a single commutator [psi, x] with psi a base function.

    This shows phi lies among the class-2 verbal values of G wr Z; the
    deeper nilpotency claims are exercised on finite analogs (see the
    dominion engine's wreath dichotomy checker and the acceptance suite).
    """
    psi = solve_commutator(phi, seed)
    ok = verify_commutator_solution(phi, psi)
    return Depth2Report(
        witness=psi, verified=ok,
        note="deeper nilpotent-verbal claims are checked on finite analogs")

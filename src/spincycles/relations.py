"""Twist-word calculus with homological evaluation.

Words are sequences of (curve name, exponent) letters standing for
compositions of Dehn twists; the leftmost letter acts last.  A letter
c^e acts on integral homology as the transvection I + e*outer(c, Jc), so
``evaluate_word_z`` builds the product letter by letter as rank-1 updates
of the running matrix, exact in Python ints.  An update reads and writes
only the columns in the supports of c and Jc, O(n |supp c|) per letter:
a chain class has at most two nonzero coordinates, so a chain word of
length O(g) costs O(g^2).  Rewrite rules operate on letter positions and
are all reversible:

* ``commute`` swaps adjacent letters whose curves have geometric
  intersection number 0;
* ``braid`` rewrites  x y x -> y x y  (exponent-one letters) when the
  intersection number is 1;
* ``conjugate_insert`` inserts a cancelling pair  x^e x^-e;
* ``cancel`` removes such a pair (the inverse of the insertion).

The machine-checked derivations below replay the standard manipulation of
the three-chain relation (t_a t_b t_c)^4 = t_alpha t_beta into
(t_b^2 t_a t_b^2 t_c)^2 = t_alpha t_beta, and the palindromic chain word
of a width-2 strip polygon, which must act as -identity on integral
homology.  The first derivation is one table, ``CHREL2_DERIVATION``, of
(line rule, moves, expected line): one loop applies its moves (the four
rules plus the substitution of the chain relation) and records the
transcript, and one loop undoes them in reverse order.
"""

from __future__ import annotations

from .homology import hyperelliptic_chain
from .polygon import (
    REGIME_HYPERELLIPTIC,
    LatticePolygon,
    Record,
    RegimeError,
    check_model_genus,
    classify_regime,
)

_set = object.__setattr__
Matrix = list[list[int]]


class CurveSystem(Record):
    """Named abstract curves with a symmetric 0/1 intersection table; the
    constructor stores the names as a tuple and each name-pair key as a frozenset."""

    curves: tuple[str, ...]
    intersections: dict[frozenset, int]
    classes: dict[str, tuple[int, ...]] | None
    _fields = ("curves", "intersections", "classes")

    def __init__(self, curves, intersections, classes=None):
        curves = tuple(curves)
        intersections = {frozenset(k): v for k, v in intersections.items()}
        for key, value in intersections.items():
            if len(key) != 2 or not key <= set(curves):
                raise ValueError(f"bad intersection key {set(key)}")
            if value < 0:
                raise ValueError("intersection numbers are nonnegative")
        _set(self, "curves", curves)
        _set(self, "intersections", intersections)
        _set(self, "classes", classes)

    def i(self, x: str, y: str) -> int:
        """Geometric intersection number; a curve is disjoint from itself."""
        if x not in self.curves or y not in self.curves:
            raise ValueError(f"unknown curve in ({x}, {y})")
        if x == y:
            return 0
        return self.intersections.get(frozenset((x, y)), 0)


Letter = tuple[str, int]


class TwistWord(Record):
    """Sequence of (curve, exponent) letters; exponent 0 is not allowed."""

    letters: tuple[Letter, ...]
    _fields = ("letters",)

    def __init__(self, letters):
        letters = tuple((str(n), int(e)) for n, e in letters)
        if any(e == 0 for _, e in letters):
            raise ValueError("zero exponents are not letters")
        _set(self, "letters", letters)

    @classmethod
    def from_names(cls, names: list[str]) -> "TwistWord":
        return cls(tuple((n, 1) for n in names))

    def normalized(self) -> "TwistWord":
        """Merge adjacent runs of one curve; drop letters that cancel."""
        out: list[Letter] = []
        for name, exp in self.letters:
            if out and out[-1][0] == name:
                merged = out[-1][1] + exp
                out.pop()
                if merged:
                    out.append((name, merged))
            else:
                out.append((name, exp))
        return TwistWord(tuple(out))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        for name, exp in self.letters:
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return " ".join(parts)


class RuleError(ValueError):
    """A rewrite rule does not apply at the requested position."""


def rewrite_step(
    system: CurveSystem,
    word: TwistWord,
    rule: str,
    position: int,
    curve: str | None = None,
    exponent: int = 1,
) -> TwistWord:
    """Apply one reversible rewrite rule at a letter position."""
    letters = list(word.letters)
    n = len(letters)
    if rule == "commute":
        if not 0 <= position < n - 1:
            raise RuleError(f"no adjacent pair at position {position}")
        (x, ex), (y, ey) = letters[position], letters[position + 1]
        if system.i(x, y) != 0:
            raise RuleError(f"{x} and {y} intersect: commute does not apply")
        letters[position], letters[position + 1] = (y, ey), (x, ex)
        return TwistWord(tuple(letters))
    if rule == "braid":
        if not 0 <= position < n - 2:
            raise RuleError(f"no letter triple at position {position}")
        (x, e1), (y, e2), (x2, e3) = letters[position : position + 3]
        if x != x2 or (e1, e2, e3) != (1, 1, 1):
            raise RuleError("braid needs the pattern x y x with unit exponents")
        if system.i(x, y) != 1:
            raise RuleError(f"i({x},{y}) != 1: braid does not apply")
        letters[position : position + 3] = [(y, 1), (x, 1), (y, 1)]
        return TwistWord(tuple(letters))
    if rule == "conjugate_insert":
        if curve is None or curve not in system.curves:
            raise RuleError("conjugate_insert needs a known curve")
        if not 0 <= position <= n:
            raise RuleError(f"cannot insert at position {position}")
        letters[position:position] = [(curve, exponent), (curve, -exponent)]
        return TwistWord(tuple(letters))
    if rule == "cancel":
        if not 0 <= position < n - 1:
            raise RuleError(f"no adjacent pair at position {position}")
        (x, ex), (y, ey) = letters[position], letters[position + 1]
        if x != y or ex != -ey:
            raise RuleError("cancel needs an adjacent pair x^e x^-e")
        del letters[position : position + 2]
        return TwistWord(tuple(letters))
    raise RuleError(f"unknown rule {rule!r}")


def _identity(n: int) -> Matrix:
    """The n x n integral identity as a list of rows."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def evaluate_word_z(
    word: TwistWord,
    classes: dict[str, tuple[int, ...]],
    sign: int = 1,
) -> Matrix:
    """Ordered product of integral transvections; leftmost letter acts last.

    A letter c^e is I + e*sign*outer(c, Jc), so right-multiplying the
    running product by it is the rank-1 update  out += e*sign*outer(out c, Jc).
    The product is kept by columns: w = out c sums the columns in supp(c),
    and column j gains e*sign*(Jc)_j*w for each j in supp(Jc), where
    (Jc)_{2i} = c_{2i+1} and (Jc)_{2i+1} = -c_{2i}.  Entries are Python
    ints, so the product is exact; it is returned as a list of rows.  Its
    size is the length n = 2g that the coordinate tuples share, so an empty
    ``classes`` raises ``ValueError``.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    for name, _ in word.letters:
        if name not in classes:
            raise ValueError(f"no homology class assigned to curve {name!r}")
    if not classes:
        raise ValueError("cannot infer genus from an empty word and no classes")
    n = len(next(iter(classes.values())))
    if n % 2 or any(len(c) != n for c in classes.values()):
        raise ValueError("coordinate vectors must share one length 2g")
    cols = _identity(n)  # the identity is its own transpose
    for name, exp in word.letters:
        support = [(k, x) for k, x in enumerate(classes[name]) if x]
        if not support:  # the twist along the zero class is the identity
            continue
        # columns are replaced, never changed in place, so w may share one
        (k, x), *rest = support
        w = cols[k] if x == 1 else [x * ci for ci in cols[k]]
        for k, x in rest:
            w = [wi + x * ci for wi, ci in zip(w, cols[k])]
        step = exp * sign
        for k, x in support:  # (Jc)_{k^1} is +c_k for odd k, -c_k for even k
            f = step * x if k & 1 else -step * x
            cols[k ^ 1] = [ci + f * wi for ci, wi in zip(cols[k ^ 1], w)]
    return [list(row) for row in zip(*cols)]


# ---------------------------------------------------------------------------
# the three-chain instance used by the relation checks


def chain_instance(genus_ambient: int) -> dict[str, tuple[int, ...]]:
    """Integral classes of a three-chain with boundary classes a1 + a2.

    a = a_1, b = b_1 - b_2 and c = a_2 pair as a chain (1, 1, 0); the two
    boundary curves of the chain neighbourhood are homologous to
    a + c = a_1 + a_2 (up to orientation, which a twist ignores).
    """
    if genus_ambient < 2:
        raise ValueError("need ambient genus >= 2")
    pad = (0,) * (2 * genus_ambient - 4)
    a, b, c, d = (1, 0, 0, 0) + pad, (0, 1, 0, -1) + pad, (0, 0, 1, 0) + pad, (1, 0, 1, 0) + pad
    return {"a": a, "b": b, "c": c, "alpha": d, "beta": d}


def chrel2_system() -> CurveSystem:
    """Curve system of the chain-relation rewriting."""
    classes = chain_instance(2)
    pairs = {
        ("a", "b"): 1,
        ("b", "c"): 1,
        ("a", "c"): 0,
        ("b", "alpha"): 0,
        ("b", "beta"): 0,
        ("alpha", "beta"): 0,
    }
    return CurveSystem(["a", "b", "c", "alpha", "beta"], pairs, classes)


def verify_chain_relation_homology(genus_ambient: int = 2) -> dict:
    """Check (t_a t_b t_c)^4 = t_alpha t_beta on integral homology.

    Uses the three-chain instance above; also records the mod-2
    consistency of both sides, invariance under the global twist-sign
    flip, and ``bounding_pair_identity``: the homology shadow
    t_alpha t_beta^-1 -> I of a bounding-pair map, not an identity in
    Mod(Sigma_g).  Homology is fixed by the Torelli group, so the false
    "(t_a t_b)^6 = 1" passes on ``chain_instance(2)`` too.  An ambient
    genus over ``MAX_MODEL_GENUS`` raises :class:`PolygonTooLargeError`.
    """
    if genus_ambient < 2:
        raise ValueError("need ambient genus >= 2")
    check_model_genus(genus_ambient)
    cls = chain_instance(genus_ambient)
    results = {}
    for sign in (1, -1):
        chain_word = TwistWord.from_names(["a", "b", "c"] * 4)
        lhs = evaluate_word_z(chain_word, cls, sign)
        rhs = evaluate_word_z(TwistWord.from_names(["alpha", "beta"]), cls, sign)
        results[sign] = (lhs, rhs, lhs == rhs)
    lhs, rhs, holds = results[1]
    mod2_ok = all(
        (x - y) % 2 == 0 for lr, rr in zip(lhs, rhs) for x, y in zip(lr, rr)
    )
    bp = evaluate_word_z(
        TwistWord((("alpha", 1), ("beta", -1))), cls
    )
    bp_ok = bp == _identity(2 * genus_ambient)
    report = {
        "suite": "chain-relation",
        "genus_ambient": genus_ambient,
        "classes": {k: list(v) for k, v in cls.items()},
        "identity_holds": holds,
        "mod2_consistent": mod2_ok,
        "flip_invariant": results[-1][2],
        "bounding_pair_identity": bp_ok,
        "pass": holds and mod2_ok and results[-1][2] and bp_ok,
    }
    return report


# ---------------------------------------------------------------------------
# the five-line rewriting of the chain relation

_SUBSTITUTE = "substitute(chain-relation)"
_CHAIN_SIDES = (
    TwistWord.from_names(["alpha", "beta"]).letters,
    TwistWord.from_names(["a", "b", "c"] * 4).letters,
)

# (line rule, moves, expected line); a move is (rule, position) or, for an
# insertion, (rule, position, curve, exponent)
CHREL2_DERIVATION = (
    (
        "conjugate-and-substitute",
        (("conjugate_insert", 0, "b", 1), ("commute", 1), ("commute", 2),
         (_SUBSTITUTE, 1)),
        "b a b c a b c a b c a b c b^-1",
    ),
    (
        "split-square",
        (("conjugate_insert", 7, "b", -1),),
        "b a b c a b c b^-1 b a b c a b c b^-1",
    ),
    (
        "commute",
        (("commute", 3), ("commute", 11)),
        "b a b a c b c b^-1 b a b a c b c b^-1",
    ),
    (
        "braid",
        (("braid", 1), ("braid", 4), ("braid", 9), ("braid", 12)),
        "b b a b b c b b^-1 b b a b b c b b^-1",
    ),
    ("cancel", (("cancel", 6), ("cancel", 12)), "b b a b b c b b a b b c"),
)


def _substitute(word: TwistWord, position: int, old, new) -> TwistWord:
    end = position + len(old)
    if word.letters[position:end] != old:
        raise RuleError(f"substitution target {TwistWord(old)} not in place")
    return TwistWord(word.letters[:position] + new + word.letters[end:])


def _undo(
    system: CurveSystem, word: TwistWord, history: list, start: TwistWord
) -> bool:
    """Undo the recorded (move, word before) history in reverse order.

    Each undo must give back the word its move was applied to and the last
    one the start word; an undo that does not apply raises ``RuleError``.
    """
    for (rule, position, *_), before in reversed(history):
        if rule == _SUBSTITUTE:
            word = _substitute(word, position, *reversed(_CHAIN_SIDES))
        elif rule == "conjugate_insert":
            word = rewrite_step(system, word, "cancel", position)
        elif rule == "cancel":
            letter = before.letters[position]
            word = rewrite_step(system, word, "conjugate_insert", position, *letter)
        else:  # commute and braid undo themselves
            word = rewrite_step(system, word, rule, position)
        if word != before:
            return False
    return word == start


def verify_chrel2_derivation(system: CurveSystem | None = None) -> dict:
    """Replay the rewriting of the chain relation into its squared form.

    The lines of ``CHREL2_DERIVATION`` transform  alpha beta  into
    (b^2 a b^2 c)^2, mirroring the displayed derivation line by line:

    1. conjugate by b (insert b b^-1, commute b^-1 past alpha and beta)
       and substitute the chain relation for alpha beta;
    2. split the fourth power as a square by inserting b^-1 b;
    3. commute the middle  c a  in each half;
    4. braid  a b a -> b a b  and  c b c -> b c b  in each half;
    5. cancel the inner  b b^-1  pairs.

    Every primitive move is validated against the intersection table, and
    each line is compared with the expected word and evaluated over Z
    against the value of the starting word (rewriting soundness), so a
    system without homology classes raises ``ValueError``; that value is
    a homology shadow, blind to Torelli elements (see
    :func:`verify_chain_relation_homology`).  Finally the
    moves are undone in reverse order, and each undo must give back the
    word the move was applied to.
    """
    if system is None:
        system = chrel2_system()
    if system.classes is None:
        raise ValueError(
            "the chrel2 soundness check needs homology classes for the curves "
            + ", ".join(system.curves)
        )
    start = TwistWord.from_names(["alpha", "beta"])
    base_value = evaluate_word_z(start, system.classes)
    word = start
    history = []
    steps = []
    for step_no, (label, moves, expected) in enumerate(CHREL2_DERIVATION, 1):
        primitives = []
        for move in moves:
            before = word
            rule, position, *insert = move
            if rule == _SUBSTITUTE:
                word = _substitute(word, position, *_CHAIN_SIDES)
            else:
                word = rewrite_step(system, word, rule, position, *insert)
            history.append((move, before))
            primitives.append(
                {
                    "rule": rule,
                    "position": position,
                    **({"curve": insert[0]} if insert else {}),
                    "word_before": str(before),
                    "word_after": str(word),
                }
            )
        value = evaluate_word_z(word, system.classes)
        steps.append(
            {
                "step": step_no,
                "rule": label,
                "position": moves[0][1],
                "word_before": primitives[0]["word_before"],
                "word_after": str(word),
                "matches_expected_line": str(word) == expected,
                "primitives": primitives,
                "sound": value == base_value,
            }
        )

    reversed_ok = _undo(system, word, history, start)
    final_ok = str(word.normalized()) == "b^2 a b^2 c b^2 a b^2 c"
    lines_ok = all(s["matches_expected_line"] for s in steps)
    sound = all(s["sound"] for s in steps)
    return {
        "suite": "chrel2",
        "steps": steps,
        "final_word": str(word.normalized()),
        "final_matches_target": final_ok,
        "all_lines_match": lines_ok,
        "sound": sound,
        "reversible": reversed_ok,
        "pass": final_ok and lines_ok and sound and reversed_ok,
    }


# ---------------------------------------------------------------------------
# the hyperelliptic chain word


def verify_hyperelliptic_word(p: LatticePolygon) -> dict:
    """Evaluate the palindromic chain word of a width-2 strip polygon.

    The word runs once up the chain and once back down (the top twist
    doubled); its integral action must be -identity, under both global
    twist-sign conventions.  That is a homology shadow: a word off by a
    Torelli element passes too.  A genus over ``MAX_MODEL_GENUS`` raises
    :class:`PolygonTooLargeError`.
    """
    regime = classify_regime(p)
    if regime != REGIME_HYPERELLIPTIC:
        raise RegimeError(f"expected the hyperelliptic regime, got {regime!r}")
    check_model_genus(p.pick_counts()[0])
    chain = hyperelliptic_chain(p)
    g = len(chain) // 2
    names = [f"v{(k + 1) // 2}" if k % 2 else f"s{k // 2}" for k in range(len(chain))]
    classes = dict(zip(names, chain))
    word = TwistWord.from_names(names + names[::-1])
    minus_i = [[-x for x in row] for row in _identity(2 * g)]
    ok, ok_flip = (evaluate_word_z(word, classes, sign) == minus_i for sign in (1, -1))
    return {
        "suite": "hyperelliptic-word",
        "genus": g,
        "word_length": len(word),
        "is_minus_identity": ok,
        "flip_invariant": ok_flip,
        "pass": ok and ok_flip,
    }

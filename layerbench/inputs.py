"""Seeded benchmark inputs, generated as mini-ML source text.

Everything the benchmark feeds the program is made here from a seed,
with no import of the package under test: the cold corpora are source
text, and the daemon session is a list of protocol operations. The
generators are ports of the paper's families (the cubic family of
Section 10, the life/lexgen stand-ins of Table 2, the introduction's
join point) plus a goal-directed random well-typed program generator
and an untypeable share the hybrid driver hands to the standard
algorithm.

Corpus shape is fixed across seeds on purpose: the family programs
sit on fixed size ladders and each random program is drawn to a fixed
source length, so two seeds give different programs with the same cost
profile. The seed decides the random programs' content and the order.

The shares of the corpus families and of the session's operation kinds
are layer-coverage choices, not a model of any measured traffic: each
layer gets enough operations to show in the timings, and the tail
families (large cubic programs, untypeable ones) enough to fill p95.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Tuple

DATATYPE_DECL = "datatype intlist = Nil | Cons of int * intlist;\n"

# -- the paper's families ------------------------------------------------------


def cubic_bindings(n: int) -> List[Tuple[str, str]]:
    """The size-``n`` cubic family as ``(name, expression)`` pairs."""
    bindings = [("fs", "fn[fs] x => x"), ("bs", "fn[bs] x => x")]
    for i in range(1, n + 1):
        bindings.append((f"f{i}", f"fn[f{i}] x => x"))
        bindings.append((f"b{i}", f"fn[b{i}] x => x"))
        bindings.append((f"x{i}", f"b{i} (fs f{i})"))
        bindings.append((f"y{i}", f"(bs b{i}) f{i}"))
    return bindings


def let_chain(bindings: List[Tuple[str, str]], body: str = "()") -> str:
    lines = [f"let {name} = {expr} in" for name, expr in bindings]
    lines.append(body)
    return "\n".join(lines) + "\n"


def cubic_source(n: int) -> str:
    return let_chain(cubic_bindings(n))


def joinpoint_source(n: int, returning: bool) -> str:
    """The introduction's join point: ``f``'s parameter joins ``n``
    abstractions (and flows back out when ``returning``)."""
    body = "x" if returning else "x 0"
    bindings = [("f", f"fn[f] x => {body}")]
    for i in range(1, n + 1):
        bindings.append((f"g{i}", f"fn[g{i}] y => y + {i}"))
        bindings.append((f"r{i}", f"f g{i}"))
    return let_chain(bindings)


_LIBRARY = [
    (
        "upto",
        "fn[upto] n => if n < 1 then Nil else Cons(n, upto (n - 1))",
    ),
    (
        "length",
        "fn[length] xs => case xs of Nil => 0 "
        "| Cons(h, t) => 1 + length t end",
    ),
    (
        "append",
        "fn[append] xs => fn ys => case xs of Nil => ys "
        "| Cons(h, t) => Cons(h, append t ys) end",
    ),
    (
        "filter",
        "fn[filter] p => fn xs => case xs of Nil => Nil "
        "| Cons(h, t) => if p h then Cons(h, filter p t) "
        "else filter p t end",
    ),
    (
        "fold",
        "fn[fold] f => fn z => fn xs => case xs of Nil => z "
        "| Cons(h, t) => f h (fold f z t) end",
    ),
    (
        "map",
        "fn[map] f => fn xs => case xs of Nil => Nil "
        "| Cons(h, t) => Cons(f h, map f t) end",
    ),
]


def _life_block(i: int) -> List[Tuple[str, str]]:
    return [
        (f"ageA{i}", f"fn[ageA{i}] x => x + {i % 5 + 1}"),
        (f"ageB{i}", f"fn[ageB{i}] x => x * {i % 3 + 2}"),
        (f"rule{i}", f"compose ageA{i} ageB{i}"),
        (f"grid{i}", f"upto {5 + i % 7}"),
        (f"next{i}", f"map rule{i} grid{i}"),
        (f"alive{i}", f"filter (fn c => 0 < c) next{i}"),
        (
            f"tot{i}",
            f"fold (fn a => fn c => a + c) 0 (map (twice ageA{i}) alive{i})",
        ),
        (f"world{i}", f"append next{i} alive{i}"),
        (f"chk{i}", f"print tot{i}"),
    ]


def _lexgen_block(i: int) -> List[Tuple[str, str]]:
    block = [
        (f"h{i}_{j}", f"fn[h{i}_{j}] c => c + {(i * 7 + j * 3) % 11}")
        for j in range(4)
    ]
    block.append(
        (f"tbl{i}", f"(h{i}_0, h{i}_1, h{i}_2, h{i}_3)")
    )
    block.append(
        (
            f"dispatch{i}",
            f"fn[dispatch{i}] c => if c < 3 then (#1 tbl{i}) c "
            f"else if c < 6 then (#2 tbl{i}) c "
            f"else if c < 9 then (#3 tbl{i}) c else (#4 tbl{i}) c",
        )
    )
    block += [
        (f"buf{i}", f"upto {4 + i % 9}"),
        (f"toks{i}", f"map dispatch{i} buf{i}"),
        (f"acc{i}", f"fold (fn a => fn c => a + c) {i} toks{i}"),
        (f"st{i}", f"acc{i} * 3 + {i % 13}"),
        (f"emit{i}", f"if st{i} < 50 then print st{i} else ()"),
    ]
    return block


def synthetic_source(blocks: int, style: str) -> str:
    """The life (combinator-heavy) or lexgen (dispatch-heavy)
    stand-in of Table 2 with ``blocks`` blocks."""
    make = _life_block if style == "life" else _lexgen_block
    body: List[Tuple[str, str]] = []
    for i in range(1, blocks + 1):
        body += make(i)
    text = let_chain(body, "0")
    for name, definition in _LIBRARY:
        text = f"letrec {name} = {definition} in\n{text}"
    prelude = [
        ("compose", "fn[compose] f => fn g => fn x => f (g x)"),
        ("twice", "fn[twice] f => fn x => f (f x)"),
    ]
    return DATATYPE_DECL + let_chain(prelude, text)


# -- random well-typed programs --------------------------------------------------

INT = ("int",)
BOOL = ("bool",)
UNIT = ("unit",)
INTLIST = ("intlist",)


def fun(param, result):
    return ("fun", param, result)


def ref(content):
    return ("ref", content)


PAIR = ("rec", INT, fun(INT, INT))


class RandomProgram:
    """Goal-directed random generation of closed well-typed terms,
    emitted fully parenthesised (a port of the package's generator:
    same type pool and form weights)."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.counter = 0
        self.pool = [INT, BOOL, fun(INT, INT), INTLIST, ref(fun(INT, INT)), PAIR]

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def atom(self, ty, env) -> str:
        for name, bound in self.rng.sample(env, len(env)):
            if bound == ty:
                return name
        if ty == INT:
            return str(self.rng.randrange(10))
        if ty == BOOL:
            return "true" if self.rng.random() < 0.5 else "false"
        if ty == UNIT:
            return "()"
        if ty[0] == "fun":
            param = self.fresh("a")
            return f"(fn {param} => {self.atom(ty[2], env + [(param, ty[1])])})"
        if ty[0] == "rec":
            return "(" + ", ".join(self.atom(f, env) for f in ty[1:]) + ")"
        if ty == INTLIST:
            return "Nil"
        if ty[0] == "ref":
            return f"(ref {self.atom(ty[1], env)})"
        raise TypeError(f"no atom of type {ty}")

    def gen(self, ty, env, fuel: int) -> str:
        if fuel <= 0:
            return self.atom(ty, env)
        expr = self._gen(ty, env, fuel)
        if self.rng.random() < 0.08:
            expr = f"(let _seq = (print {self.atom(INT, env)}) in {expr})"
        return expr

    def _gen(self, ty, env, fuel: int) -> str:
        rng = self.rng
        options = ["atom", "let", "if"]
        matching = [name for name, t in env if t == ty]
        if matching:
            options += ["var", "var"]
        options += ["app"]
        if ty[0] == "fun":
            options += ["lam", "lam", "lam"]
            if fuel > 4:
                options += ["letrec"]
        if ty == INT:
            options += ["arith", "arith", "proj"]
        if ty == BOOL:
            options += ["cmp", "not"]
        if ty == UNIT:
            options += ["print", "assign"]
        if ty[0] == "rec":
            options += ["record", "record"]
        if ty == INTLIST:
            options += ["cons", "cons", "nil"]
        if ty[0] == "ref":
            options += ["ref"]
        if fuel > 3:
            options += ["case", "deref"]
        choice = rng.choice(options)
        fuel -= rng.randrange(1, 3)
        half = fuel // 2
        if choice == "atom":
            return self.atom(ty, env)
        if choice == "var":
            return rng.choice(matching)
        if choice == "let":
            bound_ty = rng.choice(self.pool)
            name = self.fresh("v")
            bound = self.gen(bound_ty, env, half)
            body = self.gen(ty, env + [(name, bound_ty)], fuel)
            return f"(let {name} = {bound} in {body})"
        if choice == "if":
            return (
                f"(if {self.gen(BOOL, env, half)} then {self.gen(ty, env, fuel)}"
                f" else {self.gen(ty, env, half)})"
            )
        if choice == "app":
            arg_ty = rng.choice(self.pool)
            fn = self.gen(fun(arg_ty, ty), env, half)
            return f"({fn} {self.gen(arg_ty, env, half)})"
        if choice == "lam":
            param = self.fresh("x")
            body = self.gen(ty[2], env + [(param, ty[1])], fuel)
            return f"(fn {param} => {body})"
        if choice == "letrec":
            name = self.fresh("rec")
            param = self.fresh("x")
            inner = env + [(name, ty), (param, ty[1])]
            recursive = f"({name} {self.atom(ty[1], inner)})"
            base = self.gen(ty[2], inner, half)
            test = self.gen(BOOL, inner, 1)
            lam = f"(fn {param} => (if {test} then {base} else {recursive}))"
            body = self.gen(ty, env + [(name, ty)], half)
            return f"(letrec {name} = {lam} in {body})"
        if choice == "arith":
            op = rng.choice(["+", "-", "*"])
            return f"({self.gen(INT, env, half)} {op} {self.gen(INT, env, half)})"
        if choice == "proj":
            return f"(#1 {self.gen(PAIR, env, half)})"
        if choice == "cmp":
            op = rng.choice(["<", "<=", "=="])
            return f"({self.gen(INT, env, half)} {op} {self.gen(INT, env, half)})"
        if choice == "not":
            return f"(not {self.gen(BOOL, env, half)})"
        if choice == "print":
            return f"(print {self.gen(INT, env, half)})"
        if choice == "assign":
            cell = self.gen(ref(fun(INT, INT)), env, half)
            return f"({cell} := {self.gen(fun(INT, INT), env, half)})"
        if choice == "record":
            share = max(1, fuel // (len(ty) - 1))
            return "(" + ", ".join(self.gen(f, env, share) for f in ty[1:]) + ")"
        if choice == "cons":
            return f"Cons({self.gen(INT, env, half)}, {self.gen(INTLIST, env, half)})"
        if choice == "nil":
            return "Nil"
        if choice == "ref":
            return f"(ref {self.gen(ty[1], env, fuel)})"
        if choice == "case":
            h, t = self.fresh("h"), self.fresh("t")
            scrutinee = self.gen(INTLIST, env, half)
            nil = self.gen(ty, env, half)
            cons = self.gen(ty, env + [(h, INT), (t, INTLIST)], half)
            return (
                f"(case {scrutinee} of Nil => {nil} "
                f"| Cons({h}, {t}) => {cons} end)"
            )
        if choice == "deref":
            if ty[0] == "ref":
                return f"(ref {self.gen(ty[1], env, fuel)})"
            return f"(!{self.gen(ref(ty), env, half)})"
        raise AssertionError(choice)


def random_source(rng: random.Random, fuel: int) -> str:
    goal = rng.choice([INT, fun(INT, INT), INT, BOOL])
    return DATATYPE_DECL + RandomProgram(rng).gen(goal, [], fuel) + "\n"


def untypeable_source(rng: random.Random, m: int, fuel: int) -> str:
    """A size-``m`` cubic chain behind a self-application, ending in a
    random typed body: untypeable, so the hybrid driver abandons LC'
    and the cubic standard algorithm answers the whole program."""
    bindings = [("w", "fn[w] x => x x")] + cubic_bindings(m)
    return DATATYPE_DECL + let_chain(bindings, RandomProgram(rng).gen(INT, [], fuel))


# -- the cold corpus ---------------------------------------------------------------

#: Family sizes: fixed, so every seed carries the same tail.
CUBIC_SIZES = [4 + (26 * i) // 21 for i in range(22)]  # 4 .. 30
LIFE_BLOCKS = [2, 4, 6, 8, 10]
LEXGEN_BLOCKS = [3, 6, 9, 12, 15]
JOINPOINT_SIZES = [4 + 3 * i for i in range(14)]  # 4 .. 43
UNTYPEABLE_SIZES = [3 + i for i in range(12)]  # 3 .. 14

#: Source lengths of the random programs, geometric from 120 to 1500
#: characters (a coverage choice: the bulk of the median, at sizes from
#: a few lines up to the smaller family programs): each slot draws
#: programs until one lands within 10%.
RANDOM_LENGTHS = [round(120 * (1500 / 120) ** (i / 141)) for i in range(142)]


def sized_random_source(rng: random.Random, length: int) -> str:
    best = ""
    fuel = max(20, min(80, length // 15))
    for _ in range(500):
        source = random_source(rng, fuel)
        if abs(len(source) - length) <= length // 10:
            return source
        if not best or abs(len(source) - length) < abs(len(best) - length):
            best = source
    return best


def corpus(seed: int) -> List[Dict[str, object]]:
    """The cold corpus for ``seed``: 200 programs as
    ``{"name", "family", "source"}`` records.

    The family programs are the same for every seed; the seed draws
    the random programs (content, at fixed source lengths), the bodies
    of the untypeable programs, and the order."""
    rng = random.Random(f"corpus-{seed}")
    programs: List[Dict[str, object]] = []

    def add(name: str, family: str, source: str) -> None:
        programs.append({"name": name, "family": family, "source": source})

    for n in CUBIC_SIZES:
        add(f"cubic-{n}", "cubic", cubic_source(n))
    for n in LIFE_BLOCKS:
        add(f"life-{n}", "life", synthetic_source(n, "life"))
    for n in LEXGEN_BLOCKS:
        add(f"lexgen-{n}", "lexgen", synthetic_source(n, "lexgen"))
    for i, n in enumerate(JOINPOINT_SIZES):
        returning = i % 2 == 1
        add(
            f"joinpoint-{n}{'r' if returning else ''}",
            "joinpoint",
            joinpoint_source(n, returning),
        )
    for i, length in enumerate(RANDOM_LENGTHS):
        add(f"random-{i}", "random", sized_random_source(rng, length))
    for m in UNTYPEABLE_SIZES:
        add(f"untypeable-{m}", "untypeable", untypeable_source(rng, m, 20))
    rng.shuffle(programs)
    return programs


# -- the daemon edit session ----------------------------------------------------------

#: Size of the cubic project the session edits; the session is
#: ``SESSION_ROUNDS`` rounds of edits followed by reads.
SESSION_CUBIC_N = 16
SESSION_ROUNDS = 50

#: Edits per session, by kind (four per round): fixed counts in a
#: seeded order with seeded targets, so every seed grows the warm
#: graph alike. The counts are a coverage choice: each delta-engine
#: path gets at least 25 operations.
SESSION_EDITS = {"splice": 90, "dred": 60, "append": 25, "undefine": 25}

#: Reads closing every round, all against the same program state: one
#: per read verb, and a second query (the cheapest read).
ROUND_READS = ("analyze", "lint", "query", "query")


def session(seed: int) -> Dict[str, object]:
    """A seeded edit session over the cubic family.

    ``load`` defines every binding in order (the project open). Each
    round of ``ops`` then makes four edits — same-shape redefinitions
    (the splice fast path), shape-changing redefinitions (DRed),
    appends and undefines of trailing scratch bindings — and reads the
    result back with ``analyze``, ``lint`` and two ``query`` requests.
    Every operation succeeds on a correct daemon.
    """
    rng = random.Random(f"session-{seed}")
    n = SESSION_CUBIC_N
    edits = [kind for kind, count in SESSION_EDITS.items() for _ in range(count)]
    rng.shuffle(edits)
    # An undefine needs a scratch binding to remove: swap each one that
    # comes too early with the next append.
    open_scratch = 0
    for index, kind in enumerate(edits):
        if kind == "undefine" and open_scratch == 0:
            later = edits.index("append", index)
            edits[index], edits[later] = "append", "undefine"
            kind = "append"
        open_scratch += {"append": 1, "undefine": -1}.get(kind, 0)
    per_round = len(edits) // SESSION_ROUNDS
    ops: List[Dict[str, str]] = []
    scratch: List[str] = []
    for start in range(0, len(edits), per_round):
        for kind in edits[start:start + per_round]:
            # x_i may only mention bindings defined before it (j <= i).
            i = rng.randint(1, n)
            j = rng.randint(1, i)
            if kind == "splice":
                # Same shape as the original x_i: App(Var, App(Var, Var)).
                source = f"b{j} (fs f{i})"
                ops.append({"verb": "define", "name": f"x{i}", "source": source})
            elif kind == "dred":
                # Shape-changing: one extra application node.
                source = rng.choice([f"b{i} (fs (fs f{j}))", f"bs (b{i} (fs f{j}))"])
                ops.append({"verb": "define", "name": f"x{i}", "source": source})
            elif kind == "append":
                scratch.append(f"z{len(ops)}")
                ops.append({"verb": "define", "name": scratch[-1], "source": f"fs f{i}"})
            else:
                ops.append({"verb": "undefine", "name": scratch.pop()})
        for verb in ROUND_READS:
            if verb == "query":
                label = rng.choice(["fs", "bs", f"f{rng.randint(1, n)}", f"b{rng.randint(1, n)}"])
                ops.append({"verb": verb, "label": label})
            else:
                ops.append({"verb": verb})
    return {"load": cubic_bindings(n), "ops": ops}


def render(bindings: List[Tuple[str, str]]) -> str:
    """The program a cold run must parse to agree with the daemon's
    warm graph for these bindings (the daemon's ``source`` verb
    format: each definition verbatim, chained with ``let``)."""
    lines: List[str] = []
    for name, source in bindings:
        lines += [f"let {name} =", "(", source, ")", "in"]
    lines.append("()")
    return "\n".join(lines) + "\n"


def digest(document: object) -> str:
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()

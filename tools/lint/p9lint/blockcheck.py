"""Blockcheck: ownership and copy discipline for the Block data path.

Four checks over the P9_CONSUMES / P9_BORROWS / P9_HOT_PATH annotations
(src/base/block_annotations.h, DESIGN.md section 13):

  use-after-move       a BlockPtr named after std::move(it) on the same path
  consume-on-all-paths a P9_CONSUMES parameter must be forwarded or
                       explicitly dropped on every exit
  copy-in-hot-path     hot-reachable functions must not clone, copy-build, or
                       heap-allocate per message (whitelist: HOT_PATH_SAFE)
  borrow-escape        a P9_BORROWS parameter must not have its address taken
                       or be stored past the call

All four run over per-file RAW bodies rather than the merged Function
records: the protocol modules are all anonymous-namespace `class Module`, so
their qnames collide and merging would silently skip every body but the
first.  Hot-path propagation instead uses Program.all_calls, the unioned
call graph over every body (direction: callee-ward — anything a hot
function calls is itself hot, the inverse of MAY_BLOCK's caller-ward walk).
"""

from typing import Dict, List, Optional, Set, Tuple

from . import config
from .model import Finding, Program, Token
from .textparse import FileIndex, RawFunction

_CTRL = {"if", "for", "while", "switch"}


def _raws(files: List[FileIndex]):
    for fi in files:
        for raw in fi.raw_functions:
            yield raw


# --------------------------------------------------------------------------
# Annotation collection and hot-path propagation.
# --------------------------------------------------------------------------


def collect_consumes(files: List[FileIndex]) -> Dict[str, Set[str]]:
    """qname -> consumed parameter names, merged over declarations and
    definitions (the annotation usually rides the header declaration)."""
    out: Dict[str, Set[str]] = {}
    for raw in _raws(files):
        if raw.consumes:
            out.setdefault(raw.qname, set()).update(raw.consumes)
    return out


def collect_borrows(files: List[FileIndex]) -> Dict[str, Set[str]]:
    out: Dict[str, Set[str]] = {}
    for raw in _raws(files):
        if raw.borrows:
            out.setdefault(raw.qname, set()).update(raw.borrows)
    return out


def propagate_hot(program: Program, files: List[FileIndex]) -> Set[str]:
    """Transitive closure: a function is hot if annotated P9_HOT_PATH, a
    configured seed, or called (by resolved qualified name) from a hot
    function.  Callee-ward: work a per-message path does is per-message."""
    hot: Set[str] = set(config.HOT_SEEDS)
    for raw in _raws(files):
        if raw.hot:
            hot.add(raw.qname)
    changed = True
    while changed:
        changed = False
        for q in list(hot):
            for callee in program.all_calls.get(q, ()):
                if callee in program.functions and callee not in hot:
                    hot.add(callee)
                    changed = True
    return hot


# --------------------------------------------------------------------------
# Shared token helpers.
# --------------------------------------------------------------------------


def _match(toks: List[Token], i: int, open_t: str, close_t: str) -> int:
    depth = 0
    n = len(toks)
    while i < n:
        if toks[i].text == open_t:
            depth += 1
        elif toks[i].text == close_t:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _block_ptr_vars(raw: RawFunction) -> Set[str]:
    """Parameters and locals of a block-owning type in this body."""
    vars_: Set[str] = {name for (t, name) in raw.params
                       if t in config.BLOCK_PTR_TYPES}
    toks = raw.body
    for i in range(len(toks) - 1):
        if (toks[i].kind == "id" and toks[i].text in config.BLOCK_PTR_TYPES
                and toks[i + 1].kind == "id"):
            vars_.add(toks[i + 1].text)
    return vars_


def _is_move_of(toks: List[Token], i: int, vars_: Set[str]) -> Optional[str]:
    """toks[i] == 'move': the var moved if this is std::move(<var>)."""
    if (i >= 2 and toks[i - 1].text == "::" and toks[i - 2].text == "std"
            and i + 3 < len(toks) and toks[i + 1].text == "("
            and toks[i + 2].kind == "id" and toks[i + 2].text in vars_
            and toks[i + 3].text == ")"):
        return toks[i + 2].text
    return None


# --------------------------------------------------------------------------
# Check: use-after-move.
# --------------------------------------------------------------------------


def check_use_after_move(files: List[FileIndex]) -> List[Finding]:
    out: List[Finding] = []
    for raw in _raws(files):
        if not raw.has_body:
            continue
        vars_ = _block_ptr_vars(raw)
        if not vars_:
            continue
        toks = raw.body
        n = len(toks)
        # var -> brace depth at the move; a move inside a deeper scope than
        # the use is conditional, so the moved state dies with its scope.
        moved: Dict[str, int] = {}
        emitted: Set[str] = set()
        depth = 0
        virt = 0  # braceless if/else/loop bodies, popped at ';'
        paren = 0
        i = 0

        def eff() -> int:
            return depth + virt

        while i < n:
            t = toks[i]
            tt = t.text
            if tt in "([":
                paren += 1
            elif tt in ")]":
                paren -= 1
            elif tt == "{":
                depth += 1
            elif tt == "}":
                depth -= 1
                moved_now = {v: d for v, d in moved.items() if d <= eff()}
                moved.clear()
                moved.update(moved_now)
            elif tt == ";" and paren == 0 and virt > 0:
                virt = 0
                moved_now = {v: d for v, d in moved.items() if d <= eff()}
                moved.clear()
                moved.update(moved_now)
            if t.kind == "id" and tt in _CTRL.union({"else"}):
                # Peek past the condition: a non-'{' body is a virtual scope.
                j = i + 1
                if j < n and toks[j].text == "(":
                    j = _match(toks, j, "(", ")")
                if j < n and toks[j].text not in ("{", "if"):
                    virt += 1
            if t.kind == "id" and tt == "move":
                v = _is_move_of(toks, i, vars_)
                if v is not None:
                    if v in moved and moved[v] <= eff() and v not in emitted:
                        out.append(Finding(
                            check="use-after-move",
                            file=raw.file, line=t.line, function=raw.qname,
                            message=(f"BlockPtr {v!r} is moved again after "
                                     f"std::move({v}); ownership already "
                                     f"left this function"),
                            detail=f"var={v}"))
                        emitted.add(v)
                    else:
                        moved[v] = eff()
                    i += 4
                    continue
            if t.kind == "id" and tt in vars_:
                nxt = toks[i + 1].text if i + 1 < n else ""
                prev = toks[i - 1].text if i > 0 else ""
                if tt in moved and moved[tt] <= eff() and tt not in emitted:
                    # Reassignment / reset() revives the pointer.
                    if nxt == "=" or (nxt == "." and i + 2 < n
                                      and toks[i + 2].text == "reset"):
                        del moved[tt]
                    elif nxt in ("->", ".") or prev == "*":
                        out.append(Finding(
                            check="use-after-move",
                            file=raw.file, line=t.line, function=raw.qname,
                            message=(f"BlockPtr {v!r} dereferenced after "
                                     f"std::move({tt}); the block now belongs"
                                     f" to the callee"
                                     ).replace(f"{v!r}", f"{tt!r}"),
                            detail=f"var={tt}"))
                        emitted.add(tt)
                elif nxt == "=" and tt in moved:
                    del moved[tt]
            i += 1
    return out


# --------------------------------------------------------------------------
# Check: consume-on-all-paths.
# --------------------------------------------------------------------------


def _stmt_consumes(stmt: List[Token], var: str) -> bool:
    """A statement consumes `var` if it std::moves it, resets it, or
    reassigns it (ownership handed off or explicitly replaced)."""
    vset = {var}
    n = len(stmt)
    for i, t in enumerate(stmt):
        if t.kind != "id":
            continue
        if t.text == "move" and _is_move_of(stmt, i, vset) is not None:
            return True
        if t.text == var and i + 1 < n:
            nxt = stmt[i + 1].text
            if nxt == "=":
                return True
            if (nxt == "." and i + 2 < n and stmt[i + 2].text == "reset"):
                return True
    return False


def _walk_consume(toks: List[Token], var: str, consumed: bool,
                  findings: List[Tuple[int, str]]) -> Tuple[bool, bool]:
    """Walk one statement list.  Returns (consumed after, always exits).

    `findings` collects (line, kind) for exits reached with `var` owned but
    unconsumed.  Branches merge pessimistically (both must consume), loops
    and switches optimistically (the check is for forgotten paths, not
    double moves — use-after-move covers those).
    """
    n = len(toks)
    i = 0
    always_exits = False
    while i < n:
        t = toks[i]
        tt = t.text
        if always_exits:
            # Unreachable tail (e.g. code after return in a fixture); skip.
            break
        if tt == ";":
            i += 1
            continue
        if tt == "{":
            end = _match(toks, i, "{", "}")
            consumed, exits = _walk_consume(toks[i + 1 : end - 1], var,
                                            consumed, findings)
            always_exits = always_exits or exits
            i = end
            continue
        if t.kind == "id" and tt == "if":
            j = i + 1
            if j < n and toks[j].text == "(":
                cond_end = _match(toks, j, "(", ")")
            else:
                cond_end = j
            cond = toks[j:cond_end]
            if _stmt_consumes(cond, var):
                consumed = True
            # `if (b == nullptr) ...`: inside the then-branch there is
            # nothing to consume; `if (b != nullptr)` dually for the else.
            null_then = _null_test(cond, var) == "null"
            null_else = _null_test(cond, var) == "nonnull"
            then_start, then_end = _branch_extent(toks, cond_end)
            c_then, x_then = _walk_consume(toks[then_start:then_end], var,
                                           consumed or null_then, findings)
            k = then_end
            if k < n and toks[k].text == ";":
                k += 1
            if k < n and toks[k].kind == "id" and toks[k].text == "else":
                else_start, else_end = _branch_extent(toks, k + 1)
                c_else, x_else = _walk_consume(toks[else_start:else_end], var,
                                               consumed or null_else, findings)
                if x_then and x_else:
                    always_exits = True
                elif x_then:
                    consumed = c_else
                elif x_else:
                    consumed = c_then
                else:
                    consumed = c_then and c_else
                i = else_end
            else:
                # No else: the branch may be skipped, so only the pre-branch
                # state survives (an exiting branch doesn't change it).
                i = then_end
            continue
        if t.kind == "id" and tt in ("for", "while"):
            j = i + 1
            if j < n and toks[j].text == "(":
                j = _match(toks, j, "(", ")")
            body_start, body_end = _branch_extent(toks, j)
            c_body, _ = _walk_consume(toks[body_start:body_end], var,
                                      consumed, findings)
            consumed = consumed or c_body  # optimistic: loop may run
            i = body_end
            continue
        if t.kind == "id" and tt == "do":
            body_start, body_end = _branch_extent(toks, i + 1)
            c_body, _ = _walk_consume(toks[body_start:body_end], var,
                                      consumed, findings)
            consumed = consumed or c_body
            # skip `while (...) ;`
            k = body_end
            while k < n and toks[k].text != ";":
                k += 1
            i = k + 1
            continue
        if t.kind == "id" and tt == "switch":
            j = i + 1
            if j < n and toks[j].text == "(":
                j = _match(toks, j, "(", ")")
            if j < n and toks[j].text == "{":
                end = _match(toks, j, "{", "}")
                if _stmt_consumes(toks[j + 1 : end - 1], var):
                    consumed = True  # optimistic across cases
                i = end
                continue
            i = j
            continue
        # Plain statement (including return) up to ';' at depth 0.
        end = i
        d = 0
        while end < n:
            u = toks[end].text
            if u in "([{":
                d += 1
            elif u in ")]}":
                d -= 1
            elif u == ";" and d == 0:
                break
            end += 1
        stmt = toks[i:end]
        if _stmt_consumes(stmt, var):
            consumed = True
        # A `return` nested in braces within the statement belongs to a
        # lambda, not to this function.
        d2 = 0
        for x in stmt:
            if x.text == "{":
                d2 += 1
            elif x.text == "}":
                d2 -= 1
            elif x.kind == "id" and x.text == "return" and d2 == 0:
                if not consumed:
                    findings.append((t.line, "return"))
                always_exits = True
            elif x.kind == "id" and x.text in ("abort", "throw") and d2 == 0:
                always_exits = True
        i = end + 1
    return consumed, always_exits


def _null_test(cond: List[Token], var: str) -> Optional[str]:
    """Classify a condition as a null ("null") or non-null ("nonnull") test
    of `var`, else None.  Handles `v == nullptr`, `nullptr != v`, `!v`, and
    a bare truthy `v`."""
    ids = [t.text for t in cond]
    for i, t in enumerate(cond):
        if t.text != var or t.kind != "id":
            continue
        if i + 2 < len(cond) and cond[i + 1].text in ("==", "!=") \
                and cond[i + 2].text == "nullptr":
            return "null" if cond[i + 1].text == "==" else "nonnull"
        if i >= 2 and cond[i - 1].text in ("==", "!=") \
                and cond[i - 2].text == "nullptr":
            return "null" if cond[i - 1].text == "==" else "nonnull"
        if i >= 1 and cond[i - 1].text == "!":
            return "null" if len(ids) <= 2 else None
        if len(ids) == 1:
            return "nonnull"
    return None


def _branch_extent(toks: List[Token], i: int) -> Tuple[int, int]:
    """Extent of the statement-or-block starting at toks[i]: (start, end)
    where the slice excludes outer braces for a block."""
    n = len(toks)
    if i < n and toks[i].text == "{":
        end = _match(toks, i, "{", "}")
        return i + 1, end - 1
    if i < n and toks[i].kind == "id" and toks[i].text == "if":
        # `else if`: the nested if runs to the end of ITS branch(es); give
        # the walker the whole rest and let recursion sort it out.
        return i, n
    # Single statement up to ';' at depth 0.
    d = 0
    j = i
    while j < n:
        u = toks[j].text
        if u in "([{":
            d += 1
        elif u in ")]}":
            d -= 1
        elif u == ";" and d == 0:
            return i, j
        j += 1
    return i, n


def check_consume_on_all_paths(files: List[FileIndex]) -> List[Finding]:
    consumes = collect_consumes(files)
    out: List[Finding] = []
    for raw in _raws(files):
        if not raw.has_body or raw.qname not in consumes:
            continue
        declared = consumes[raw.qname]
        pnames = {name for (_t, name) in raw.params}
        for var in sorted(declared):
            if var not in pnames:
                continue  # definition renamed the parameter; declaration-only
            exits: List[Tuple[int, str]] = []
            consumed, always_exits = _walk_consume(raw.body, var, False, exits)
            if not always_exits and not consumed:
                exits.append((raw.line, "end"))
            if exits:
                line, kind = exits[0]
                out.append(Finding(
                    check="consume-on-all-paths",
                    file=raw.file, line=line, function=raw.qname,
                    message=(f"P9_CONSUMES parameter {var!r} is not consumed"
                             f" on every path (first unconsumed exit:"
                             f" {'falls off the end' if kind == 'end' else 'return'});"
                             f" forward it or DropBlock it explicitly"),
                    detail=f"var={var}"))
    return out


# --------------------------------------------------------------------------
# Check: copy-in-hot-path.
# --------------------------------------------------------------------------


def check_copy_in_hot_path(program: Program, files: List[FileIndex],
                           hot: Set[str]) -> List[Finding]:
    out: List[Finding] = []
    for raw in _raws(files):
        if not raw.has_body or raw.qname not in hot:
            continue
        if raw.qname in config.HOT_PATH_SAFE:
            continue
        toks = raw.body
        n = len(toks)
        seen: Set[str] = set()
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            tt = t.text
            nxt = toks[i + 1].text if i + 1 < n else ""
            prev = toks[i - 1].text if i > 0 else ""
            what = None
            if tt in config.HOT_BANNED_CALLEES and nxt == "(":
                what = tt
            elif tt == "Text" and nxt == "(" and prev in ("->", "."):
                what = "Text"
            elif tt in config.HOT_COPY_CTORS and nxt == "(":
                what = tt
            elif tt in ("string", "vector") and prev == "::" \
                    and _constructs(toks, i):
                what = f"std::{tt}"
            elif tt == "new" and nxt != "(":  # placement new is fine
                what = "new"
            if what is None or what in seen:
                continue
            if _cold_statement(toks, i):
                continue
            seen.add(what)
            out.append(Finding(
                check="copy-in-hot-path",
                file=raw.file, line=t.line, function=raw.qname,
                message=(f"{what} in hot-path function {raw.qname} (reachable"
                         f" from a P9_HOT_PATH root): per-message copies and"
                         f" allocations belong behind AllocDataBlock,"
                         f" or add the function to HOT_PATH_SAFE"
                         f" with a comment"),
                detail=f"callee={what}"))
    return out


def _constructs(toks: List[Token], i: int) -> bool:
    """toks[i] is `string`/`vector`: True when this is a construction with
    arguments (`std::string(kErr)`, `std::vector<T>(n)`), not a bare local
    declaration — declaring an empty container allocates nothing (what it
    does later is the runtime hotcheck's department)."""
    n = len(toks)
    j = i + 1
    if j < n and toks[j].text == "<":
        d = 0
        while j < n:
            if toks[j].text == "<":
                d += 1
            elif toks[j].text == ">":
                d -= 1
                if d == 0:
                    j += 1
                    break
            elif toks[j].text in ";{(":
                return False
            j += 1
    if j < n and toks[j].text == "(":
        return toks[j + 1].text != ")" if j + 1 < n else False
    return False


def _cold_statement(toks: List[Token], i: int) -> bool:
    """The statement around toks[i] is a cold error sub-path of a hot
    function when it mentions an error marker (Error(...) construction or
    the conversation's err_ string) — failures are not per-message work."""
    s = i
    while s > 0 and toks[s - 1].text not in (";", "{", "}"):
        s -= 1
    e = i
    n = len(toks)
    while e < n and toks[e].text not in (";", "{", "}"):
        e += 1
    return any(x.kind == "id" and x.text in config.HOT_COLD_MARKERS
               for x in toks[s:e])


# --------------------------------------------------------------------------
# Check: borrow-escape.
# --------------------------------------------------------------------------


def check_borrow_escape(files: List[FileIndex]) -> List[Finding]:
    borrows = collect_borrows(files)
    out: List[Finding] = []
    for raw in _raws(files):
        if not raw.has_body or raw.qname not in borrows:
            continue
        declared = borrows[raw.qname]
        pnames = {name for (_t, name) in raw.params}
        vars_ = {v for v in declared if v in pnames}
        if not vars_:
            continue
        toks = raw.body
        n = len(toks)
        emitted: Set[str] = set()
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text not in vars_ or t.text in emitted:
                continue
            v = t.text
            prev = toks[i - 1].text if i > 0 else ""
            prev2 = toks[i - 2].text if i > 1 else ""
            nxt = toks[i + 1].text if i + 1 < n else ""
            escape = None
            if prev == "&" and prev2 in ("=", "(", ",", "return", "{", ";", ""):
                escape = "address-of"
            elif prev == "=" and i >= 2 and toks[i - 2].kind == "id" \
                    and toks[i - 2].text.endswith("_") and nxt in (";", ","):
                escape = "stored-to-member"
            if escape is None:
                continue
            emitted.add(v)
            out.append(Finding(
                check="borrow-escape",
                file=raw.file, line=t.line, function=raw.qname,
                message=(f"P9_BORROWS parameter {v!r} escapes the call"
                         f" ({escape}): a borrowed block is only valid for"
                         f" the duration of this function"),
                detail=f"var={v};escape={escape}"))
    return out


# --------------------------------------------------------------------------
# Entry point.
# --------------------------------------------------------------------------


def run(program: Program, files: List[FileIndex]) -> List[Finding]:
    hot = propagate_hot(program, files)
    findings: List[Finding] = []
    findings += check_use_after_move(files)
    findings += check_consume_on_all_paths(files)
    findings += check_copy_in_hot_path(program, files, hot)
    findings += check_borrow_escape(files)
    return findings

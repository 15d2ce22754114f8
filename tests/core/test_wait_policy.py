"""The shared ring-slot and halo wait policy against the books it replaced.

:func:`~repro.core.pipemodel.stage_inputs` and
:func:`~repro.core.pipemodel.drain_outputs` hold the one copy of the
wait policy that both :meth:`PipelineIssuer.issue_next
<repro.core.executor.PipelineIssuer.issue_next>` and the dry-run model
run.  Before them the issuer kept its books inline; :func:`reference_chunk`
keeps that code verbatim, but for the event tokens, which it draws from
the same numbered log the shared policy's callbacks draw from.

Both sides are driven with seeded random monotone range tables: random
ring capacities, input, output and tofrom arrays, dedup and duplicate
halo modes, empty and overlapping ranges, and the extra readers that
checksum commands (one per transfer piece) and vote commands (one per
chunk, over every range) append.  Every chunk must issue the same
commands with the same waits, in order and with duplicates, and leave
the same books behind.

The issuer itself issues a :func:`~repro.core.pipemodel.chunk_program`,
the policy's run recorded once per plan; over the same tables each
program step must hold the reference's ops, their wait ids, the
kernel's data and slot-reuse waits apart and the check counts.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.core.pipemodel import (
    CHECK_D2H,
    CHECK_H2D,
    CHECK_HALO,
    VOTE,
    Books,
    chunk_program,
    drain_outputs,
    stage_inputs,
)
from repro.core.ringbuffer import RingPiece, ring_pieces

IN, OUT, TOFROM = "in", "out", "tofrom"


class Log:
    """Numbered refs: each issued command is logged with its waits and
    gets the next integer as the ref later commands wait on."""

    def __init__(self) -> None:
        self.ops: list = []

    def ref(self, kind: str, var, lo: int, hi: int, waits) -> int:
        self.ops.append((kind, var, lo, hi, tuple(waits)))
        return len(self.ops) - 1


def reference_chunk(lanes, ranges, dedup, verify, vote, log):
    """The issuer's books as ``issue_next`` kept them inline; returns
    the kernel's ``(inputs, out_reuse)`` waits."""
    in_tokens: list = []
    out_reuse: list = []
    for lane, (lo, hi) in zip(lanes, ranges):
        book, cap = lane.book, lane.capacity
        if lane.is_input:
            covered = book.covered_hi
            new_lo = max(lo, covered) if dedup and covered is not None else lo
            if new_lo < hi:
                var = lane.var
                for piece in ring_pieces(new_lo, hi, cap):
                    g_lo, g_hi = piece.g_lo, piece.g_hi
                    r_lo, r_hi = g_lo - cap, g_hi - cap
                    reuse = [
                        tok for (a, b, tok) in book.readers
                        if a < r_hi and b > r_lo
                    ]
                    if book.d2h:
                        reuse += [
                            tok for (a, b, tok) in book.d2h
                            if a < r_hi and b > r_lo
                        ]
                    tok = log.ref("h2d", var, g_lo, g_hi, reuse)
                    book.h2d.append((g_lo, g_hi, tok))
                    if verify:
                        vtok = log.ref("verify", var, g_lo, g_hi, (tok,))
                        book.readers.append((g_lo, g_hi, vtok))
                book.covered_hi = max(covered or hi, hi)
            h2d = book.h2d
            in_tokens += [tok for (a, b, tok) in h2d if a < hi and b > lo]
            book.h2d = [r for r in h2d if r[1] > lo]
        floor = lo - cap
        readers = book.readers
        if lane.is_output:
            ceil = hi - cap
            d2h = book.d2h
            if d2h:
                out_reuse += [tok for (a, b, tok) in d2h if a < ceil and b > floor]
                book.d2h = [r for r in d2h if r[1] > floor]
            if readers:
                out_reuse += [
                    tok for (a, b, tok) in readers if a < ceil and b > floor
                ]
        if readers:
            book.readers = [r for r in readers if r[1] > floor]

    ktok = log.ref("kernel", None, 0, 0, in_tokens + out_reuse)
    for lane, (lo, hi) in zip(lanes, ranges):
        book = lane.book
        if lane.is_input:
            book.readers.append((lo, hi, ktok))
        if not lane.is_output:
            continue
        var = lane.var
        for piece in ring_pieces(lo, hi, lane.capacity):
            g_lo, g_hi = piece.g_lo, piece.g_hi
            dtok = log.ref("d2h", var, g_lo, g_hi, ())
            book.d2h.append((g_lo, g_hi, dtok))
            if verify:
                vtok = log.ref("verify", var, g_lo, g_hi, (dtok,))
                book.readers.append((g_lo, g_hi, vtok))
    if vote:
        v2tok = log.ref("vote", None, 0, 0, (ktok,))
        for lane, (lo, hi) in zip(lanes, ranges):
            lane.book.readers.append((lo, hi, v2tok))
    return in_tokens, out_reuse


class Issue:
    """The shared policy's callbacks, issuing into a :class:`Log` the way
    the issuer's do (a checksum reader after each piece when ``verify``)."""

    def __init__(self, log: Log, verify: bool) -> None:
        self.log, self.verify = log, verify

    def _piece(self, kind, book, piece, waits) -> int:
        tok = self.log.ref(kind, book.lane, piece.g_lo, piece.g_hi, waits)
        if self.verify:
            vtok = self.log.ref("verify", book.lane, piece.g_lo, piece.g_hi, (tok,))
            book.readers.append((piece.g_lo, piece.g_hi, vtok))
        return tok

    def issue_h2d(self, book, piece, reuse) -> int:
        return self._piece("h2d", book, piece, reuse)

    def issue_d2h(self, book, piece) -> int:
        return self._piece("d2h", book, piece, ())


def shared_chunk(books, ranges, dedup, verify, vote, log):
    """One chunk through the shared policy, as ``issue_next`` runs it."""
    inputs: list = []
    out_reuse: list = []
    issue = Issue(log, verify)
    stage_inputs(books, ranges, dedup, issue, inputs, out_reuse)
    ktok = log.ref("kernel", None, 0, 0, inputs + out_reuse)
    drain_outputs(books, ranges, ktok, issue)
    if vote:
        v2tok = log.ref("vote", None, 0, 0, (ktok,))
        for book, (lo, hi) in zip(books, ranges):
            book.readers.append((lo, hi, v2tok))
    return inputs, out_reuse


def random_table(rng: random.Random, capacities, nchunks: int):
    """Per chunk, one monotone ``(lo, hi)`` per array, never wider than
    its ring: ``lo`` and ``hi`` never fall, and ranges may be empty or
    overlap the previous chunk's (a halo)."""
    los = [0] * len(capacities)
    his = [0] * len(capacities)
    table = []
    for _ in range(nchunks):
        row = []
        for k, cap in enumerate(capacities):
            lo = los[k] + rng.randint(0, cap)
            hi = max(his[k], lo + rng.randint(0, cap))
            los[k], his[k] = lo, hi
            row.append((lo, hi))
        table.append(tuple(row))
    return table


def _state(book):
    return (book.h2d, book.readers, book.d2h, book.covered_hi)


def _arrays(rng: random.Random):
    """``(kinds, capacities, clauses)`` of one to four random arrays."""
    kinds = [rng.choice((IN, OUT, TOFROM)) for _ in range(rng.randint(1, 4))]
    capacities = [rng.randint(1, 8) for _ in kinds]
    clauses = [
        SimpleNamespace(is_input=kind != OUT, is_output=kind != IN) for kind in kinds
    ]
    return kinds, capacities, clauses


def _case(seed: int):
    """``(rng, clauses, capacities, dedup, verify, vote, table)`` of one
    seeded random case."""
    rng = random.Random(seed)
    kinds, capacities, clauses = _arrays(rng)
    dedup = rng.random() < 0.5
    verify = rng.random() < 0.5
    # vote cannot dual-execute over a tofrom array (the issuer refuses it)
    vote = verify and TOFROM not in kinds and rng.random() < 0.5
    table = random_table(rng, capacities, rng.randint(1, 40))
    return rng, clauses, capacities, dedup, verify, vote, table


def _lanes(clauses, capacities):
    """:func:`reference_chunk`'s lanes, with empty books."""
    return [
        SimpleNamespace(
            var=k, capacity=cap, is_input=cl.is_input, is_output=cl.is_output,
            book=SimpleNamespace(h2d=[], readers=[], d2h=[], covered_hi=None),
        )
        for k, (cl, cap) in enumerate(zip(clauses, capacities))
    ]


@pytest.mark.parametrize("first", range(0, 300, 30))
def test_shared_policy_matches_the_inline_books(first):
    for seed in range(first, first + 30):
        _check(seed)


def _check(seed: int) -> None:
    _rng, clauses, capacities, dedup, verify, vote, table = _case(seed)
    lanes = _lanes(clauses, capacities)
    books = [Books(cl, cap, k) for k, (cl, cap) in enumerate(zip(clauses, capacities))]
    ref_log, log = Log(), Log()
    for ranges in table:
        expected = reference_chunk(lanes, ranges, dedup, verify, vote, ref_log)
        got = shared_chunk(books, ranges, dedup, verify, vote, log)
        assert got == expected, seed
        assert log.ops == ref_log.ops, seed
        assert [_state(b) for b in books] == [_state(lane.book) for lane in lanes]


@pytest.mark.parametrize("first", range(0, 300, 30))
def test_chunk_program_matches_the_inline_books(first):
    for seed in range(first, first + 30):
        _check_program(seed)


#: the check of each checksum and vote op kind of a program row
_CHECKS = {CHECK_H2D: "h2d", CHECK_HALO: "halo", CHECK_D2H: "d2h", VOTE: "vote"}


def _steps(program):
    """Each chunk of a :class:`~repro.core.pipemodel.ChunkProgram`,
    unpacked from its rows: its input-transfer and drain phases as
    ``(check, k, piece, label, waits)`` ops (``check`` None for a
    transfer), the kernel's data and reuse waits, and its counts."""
    for i in range(len(program)):
        first, kernel, end, checks, seams = program.step(i)
        ops = [program.op(j) for j in range(first, end)]
        h2d, (*_kernel, reads, reuse), d2h = (
            ops[:kernel - first], ops[kernel - first], ops[kernel - first + 1:]
        )
        yield SimpleNamespace(
            h2d=[(_CHECKS.get(op[0]), op[1], RingPiece(*op[2:5]), None, op[5] + op[6]) for op in h2d],
            reads=reads, reuse=reuse,
            d2h=[(_CHECKS.get(op[0]), op[1], RingPiece(*op[2:5]), None, op[5] + op[6]) for op in d2h],
            checks=checks, seams=seams,
        )


def _program_ops(step) -> list:
    """One chunk of a chunk program (:func:`_steps`) as :class:`Log` ops."""
    ops = []
    for phase, kind in ((step.h2d, "h2d"), (None, "kernel"), (step.d2h, "d2h")):
        if phase is None:
            ops.append(("kernel", None, 0, 0, step.reads + step.reuse))
            continue
        for check, k, piece, _label, waits in phase:
            if check == "vote":
                ops.append(("vote", None, 0, 0, waits))
            else:
                op = kind if check is None else "verify"
                ops.append((op, k, piece.g_lo, piece.g_hi, waits))
    return ops


def _check_program(seed: int) -> None:
    rng, clauses, capacities, dedup, verify, vote, table = _case(seed)
    # shard seams, which turn a verified input transfer crossing one
    # into a "halo" check
    halo = {
        k: [(lo, lo + rng.randint(1, 4))]
        for k, lo in enumerate(rng.randint(0, 40) for _ in clauses)
        if verify and rng.random() < 0.5
    }
    plan = SimpleNamespace(
        specs={k: SimpleNamespace(clause=cl) for k, cl in enumerate(clauses)},
        halo_mode="dedup" if dedup else "duplicate",
    )
    program = chunk_program(plan, table, capacities, verify, vote, halo)
    assert len(program) == len(table)
    lanes = _lanes(clauses, capacities)
    ref_log = Log()
    for step, ranges in zip(_steps(program), table):
        first = len(ref_log.ops)
        expected = reference_chunk(lanes, ranges, dedup, verify, vote, ref_log)
        ops = ref_log.ops[first:]
        assert _program_ops(step) == ops, seed
        assert (list(step.reads), list(step.reuse)) == expected, seed
        assert step.checks == sum(op[0] in ("verify", "vote") for op in ops), seed
        seams = [
            check == "halo" for check, k, piece, *_ in step.h2d if check is not None
        ]
        assert seams == [
            any(lo < piece.g_hi and hi > piece.g_lo for lo, hi in halo.get(k, ()))
            for check, k, piece, *_ in step.h2d if check is not None
        ], seed
        assert step.seams == sum(seams), seed


def test_random_tables_reach_every_wait():
    """The random cases gate transfers on readers and on drains, gate
    kernels on drains and on readers, and dedup halo skips staged data."""
    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        _kinds, capacities, clauses = _arrays(rng)
        books = [Books(cl, cap, k) for k, (cl, cap) in enumerate(zip(clauses, capacities))]
        log = Log()
        for ranges in random_table(rng, capacities, rng.randint(1, 40)):
            for book, (lo, _hi) in zip(books, ranges):
                if book.is_input and book.covered_hi is not None and lo < book.covered_hi:
                    seen.add("halo")
            shared_chunk(books, ranges, True, False, False, log)
        for kind, _var, _lo, _hi, waits in log.ops:
            # a kernel's h2d waits are its data; the rest guard its slots
            seen.update(f"{kind}<-{log.ops[w][0]}" for w in waits)
    assert seen >= {"halo", "h2d<-kernel", "h2d<-d2h", "kernel<-d2h", "kernel<-kernel"}

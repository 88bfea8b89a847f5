"""Write-ahead campaign journal: durable, resumable injection campaigns.

The paper's thesis -- long-running work should survive failures instead of
restarting from zero -- applies to the campaign runner itself.  A
:class:`CampaignJournal` applies the checkpoint/restart discipline to the
engine: every completed shard is recorded durably *before* its outcomes are
counted, so a campaign killed at 90% (worker OOM, wall-clock, Ctrl-C)
resumes from its journal and re-runs only the missing 10%.

Durability contract
-------------------
The journal is a JSON-lines file that only ever grows.  :meth:`create`
writes one header line; every completed shard and every quarantined plan
then appends one compact JSON line with ``write`` + ``flush`` +
``fsync`` before the call returns.  An append therefore costs the size of
its own record, whatever the journal already holds, and the file keeps
its inode: there is no temp file and no rename.

A crash can tear only the append in flight, and an append is one line
ending in a newline, so a torn write leaves a *final* line without one.
:meth:`CampaignJournal.load` drops that fragment (its shard simply runs
again) and cuts it off the file before the next append, so a resumed
journal never glues a record onto a fragment.  Any other malformed line
-- a complete line that does not parse, or an unknown record -- raises
:class:`~repro.errors.JournalError`, as does a journal of another format
(format 1 was a whole JSON document rewritten per append).

Identity contract
-----------------
The header pins (app, config, n, seed) plus a SHA-256 digest of the full
plan list.  :meth:`CampaignJournal.verify` refuses to resume a campaign
whose parameters differ in any way, which is what makes a resumed result
bit-identical to an uninterrupted run: the plan population is provably the
same, and completed plans are never re-executed.

Every plan index may appear in the journal at most once, across completed
shards and quarantine records alike -- a duplicate (e.g. a journal edited
by hand, or two engines appending to one file) raises
:class:`~repro.errors.JournalError` instead of silently double-counting.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import JournalError
from repro.faultinject.fault_model import InjectionPlan
from repro.faultinject.injector import InjectionResult
from repro.faultinject.outcomes import Outcome
from repro.machine.signals import Signal
from repro.telemetry.tracer import NULL_TRACER

#: Format version written into every journal.
JOURNAL_FORMAT = 2

#: The encoding :func:`plans_digest` hashes.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
#: Plans encoded per :func:`plans_digest` update.
_DIGEST_CHUNK = 1000


def plan_to_dict(plan: InjectionPlan) -> dict:
    """JSON-safe dict for one :class:`InjectionPlan`."""
    return {
        "dyn_index": plan.dyn_index,
        "bit": plan.bit,
        "reg_choice": plan.reg_choice,
        "extra_bits": list(plan.extra_bits),
    }


def plan_from_dict(data: dict) -> InjectionPlan:
    """Inverse of :func:`plan_to_dict`."""
    return InjectionPlan(
        dyn_index=data["dyn_index"],
        bit=data["bit"],
        reg_choice=data["reg_choice"],
        extra_bits=tuple(data.get("extra_bits", ())),
    )


def result_to_dict(result: InjectionResult) -> dict:
    """JSON-safe dict for one :class:`InjectionResult`."""
    return {
        "outcome": result.outcome.value,
        "plan": plan_to_dict(result.plan),
        "target_pc": result.target_pc,
        "target_reg": list(result.target_reg) if result.target_reg else None,
        "first_signal": result.first_signal.name if result.first_signal else None,
        "interventions": result.interventions,
        "steps": result.steps,
    }


def result_from_dict(data: dict) -> InjectionResult:
    """Inverse of :func:`result_to_dict`."""
    target = data.get("target_reg")
    signal = data.get("first_signal")
    return InjectionResult(
        outcome=Outcome(data["outcome"]),
        plan=plan_from_dict(data["plan"]),
        target_pc=data.get("target_pc"),
        target_reg=(target[0], target[1]) if target else None,
        first_signal=Signal[signal] if signal else None,
        interventions=data.get("interventions", 0),
        steps=data.get("steps", 0),
    )


def plans_digest(plans: Sequence[InjectionPlan]) -> str:
    """SHA-256 over the canonical JSON encoding of *plans*.

    Pins the exact fault population a journal belongs to; (n, seed) alone
    would miss externally supplied plan lists.  The encoding is a JSON
    list of :func:`plan_to_dict` objects with sorted keys and no spaces.
    It is hashed :data:`_DIGEST_CHUNK` plans at a time, each chunk encoded
    as one list with its brackets cut off, so the bytes are those of the
    whole list but no string for the whole list is ever built.
    """
    encode = _CANONICAL.encode
    digest = hashlib.sha256(b"[")
    for start in range(0, len(plans), _DIGEST_CHUNK):
        if start:
            digest.update(b",")
        chunk = plans[start:start + _DIGEST_CHUNK]
        digest.update(encode([plan_to_dict(plan) for plan in chunk])[1:-1].encode())
    digest.update(b"]")
    return digest.hexdigest()


@dataclass(frozen=True)
class JournalHeader:
    """Identity of the campaign a journal checkpoints."""

    app_name: str
    config_name: str
    n: int
    seed: int
    plans_sha256: str

    @classmethod
    def for_campaign(
        cls,
        app_name: str,
        config_name: str,
        n: int,
        seed: int,
        plans: Sequence[InjectionPlan],
    ) -> "JournalHeader":
        return cls(
            app_name=app_name,
            config_name=config_name,
            n=n,
            seed=seed,
            plans_sha256=plans_digest(plans),
        )

    def to_dict(self) -> dict:
        """Every field, in declaration order: the header line's payload."""
        return asdict(self)


@dataclass(frozen=True)
class QuarantineRecord:
    """One poison plan: persistently failing, excluded but never dropped."""

    index: int                  # position in the campaign's plan list
    plan: InjectionPlan
    error: str                  # repr of the final exception
    attempts: int               # executions before the engine gave up


class CampaignJournal:
    """Append-only record of completed shards and quarantined plans.

    Use :meth:`create` for a fresh campaign and :meth:`load` +
    :meth:`verify` to resume one; :meth:`record_shard` /
    :meth:`record_quarantine` persist durably before returning.  A
    journal being written keeps only the plan indices it claimed; the
    results :meth:`load` reads back are held until :meth:`take_pairs`
    hands them over.
    """

    def __init__(self, path: str | Path, header: JournalHeader):
        self.path = Path(path)
        self.header = header
        #: Telemetry sink for append events; the engine swaps in its own
        #: tracer so durable-write latency shows up in the phase table.
        self.tracer = NULL_TRACER
        self._pairs: list[tuple[int, InjectionResult]] = []
        self._quarantined: list[QuarantineRecord] = []
        self._seen: set[int] = set()
        #: File length without the torn final line :meth:`load` found,
        #: cut back to before the next append (None: nothing to cut).
        self._torn_at: int | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, path: str | Path, header: JournalHeader) -> "CampaignJournal":
        """Start a fresh journal at *path* (its header written durably); a
        file already there is refused, never overwritten."""
        journal = cls(path, header)
        try:
            journal._append(
                {"format": JOURNAL_FORMAT, "header": header.to_dict()}, mode="xb"
            )
        except FileExistsError:
            raise JournalError(
                f"journal {path} already exists; resume from it or remove it"
            ) from None
        return journal

    @classmethod
    def load(cls, path: str | Path) -> "CampaignJournal":
        """Read a journal back, validating format, lines and uniqueness.

        Only the final line may be torn (no trailing newline): it is
        ignored here and cut off the file before the next append.
        """
        path = Path(path)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise JournalError(f"no journal at {path}") from None
        except OSError as exc:
            raise JournalError(f"unreadable journal {path}: {exc}") from exc
        head, newline, body = data.partition(b"\n")
        try:
            first = json.loads(head)
        except ValueError:
            try:  # a format-1 journal is one JSON document over many lines
                first = json.loads(data)
            except ValueError as exc:
                raise JournalError(f"unreadable journal {path}: {exc}") from exc
        if not isinstance(first, dict):
            raise JournalError(f"journal {path} does not start with a JSON object")
        if first.get("format") != JOURNAL_FORMAT:
            raise JournalError(
                f"unsupported journal format {first.get('format')!r} in {path} "
                f"(this version reads format {JOURNAL_FORMAT} only)"
            )
        if not newline:
            raise JournalError(f"malformed journal {path}: torn header line")
        try:
            journal = cls(path, JournalHeader(**first["header"]))
        except (KeyError, TypeError) as exc:
            raise JournalError(f"malformed journal {path}: header {exc!r}") from exc
        *lines, torn = body.split(b"\n")
        for lineno, line in enumerate(lines, start=2):
            try:
                journal._admit_line(json.loads(line))
            except (KeyError, TypeError, ValueError) as exc:
                raise JournalError(
                    f"malformed journal {path}, line {lineno}: {exc!r}"
                ) from exc
        if torn:
            journal._torn_at = len(data) - len(torn)
        return journal

    def verify(self, header: JournalHeader) -> None:
        """Refuse to resume a journal from a different campaign."""
        if header == self.header:
            return
        ours, theirs = self.header.to_dict(), header.to_dict()
        mismatches = [
            f"{name}: journal={ours[name]!r} run={theirs[name]!r}"
            for name in ours
            if ours[name] != theirs[name]
        ]
        raise JournalError(
            f"journal {self.path} belongs to a different campaign "
            f"({'; '.join(mismatches)})"
        )

    # -- appends (durable before returning) --------------------------------

    def record_shard(
        self, indices: Iterable[int], results: Sequence[InjectionResult]
    ) -> None:
        """Durably journal one completed shard (its results are not kept)."""
        indices, results = list(indices), list(results)
        self._claim_shard(indices, results)
        with self.tracer.span("journal-append"):
            self._append({
                "kind": "shard",
                "indices": indices,
                "results": [result_to_dict(r) for r in results],
            })

    def record_quarantine(
        self, index: int, plan: InjectionPlan, error: str, attempts: int
    ) -> None:
        """Durably journal one poison plan."""
        self._admit_quarantine(
            QuarantineRecord(index=index, plan=plan, error=error, attempts=attempts)
        )
        with self.tracer.span("journal-append"):
            self._append({
                "kind": "quarantine",
                "index": index,
                "plan": plan_to_dict(plan),
                "error": error,
                "attempts": attempts,
            })

    def _append(self, record: dict, mode: str = "ab") -> None:
        """Write *record* as one line and fsync it before returning."""
        line = json.dumps(record, separators=(",", ":")).encode() + b"\n"
        with open(self.path, mode) as handle:
            if self._torn_at is not None:
                handle.truncate(self._torn_at)
                self._torn_at = None
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def _admit_line(self, record: dict) -> None:
        """Take in one shard or quarantine line read back by :meth:`load`."""
        kind = record["kind"]
        if kind == "shard":
            indices = [int(i) for i in record["indices"]]
            for index, data in zip(indices, record["results"]):
                if data.get("timed_out"):
                    raise JournalError(
                        f"plan {index} in journal {self.path} was cut short "
                        f"by a wall-clock watchdog, which this version does "
                        f"not have; its HANG depends on the clock, so the "
                        f"journal cannot be resumed"
                    )
            results = [result_from_dict(r) for r in record["results"]]
            self._claim_shard(indices, results)
            self._pairs.extend(zip(indices, results))
        elif kind == "quarantine":
            self._admit_quarantine(
                QuarantineRecord(
                    index=int(record["index"]),
                    plan=plan_from_dict(record["plan"]),
                    error=record["error"],
                    attempts=int(record["attempts"]),
                )
            )
        else:
            raise ValueError(f"unknown record kind {kind!r}")

    def _claim(self, indices: Iterable[int]) -> None:
        for index in indices:
            if index in self._seen:
                raise JournalError(
                    f"plan {index} appears twice in journal {self.path}; "
                    f"refusing to double-count"
                )
            if not 0 <= index < self.header.n:
                raise JournalError(
                    f"plan index {index} outside campaign of n={self.header.n}"
                )
            self._seen.add(index)

    def _claim_shard(
        self, indices: list[int], results: list[InjectionResult]
    ) -> None:
        if len(indices) != len(results):
            raise JournalError(
                f"shard with {len(indices)} indices but {len(results)} results"
            )
        self._claim(indices)

    def _admit_quarantine(self, record: QuarantineRecord) -> None:
        self._claim((record.index,))
        self._quarantined.append(record)

    # -- views -------------------------------------------------------------

    @property
    def completed_indices(self) -> frozenset[int]:
        """Plan indices with a journaled result."""
        return frozenset(self._seen).difference(r.index for r in self._quarantined)

    @property
    def quarantined(self) -> tuple[QuarantineRecord, ...]:
        """Poison plans, in quarantine order."""
        return tuple(self._quarantined)

    @property
    def settled_indices(self) -> frozenset[int]:
        """Every index that must not be re-run: completed or quarantined."""
        return frozenset(self._seen)

    def take_pairs(self) -> list[tuple[int, InjectionResult]]:
        """Hand over the (index, result) pairs :meth:`load` read, sorted by
        index; the journal keeps none of them (a second call returns [])."""
        pairs, self._pairs = self._pairs, []
        pairs.sort(key=lambda pair: pair[0])
        return pairs


__all__ = [
    "CampaignJournal",
    "JournalHeader",
    "QuarantineRecord",
    "plans_digest",
    "plan_to_dict",
    "plan_from_dict",
    "result_to_dict",
    "result_from_dict",
    "JOURNAL_FORMAT",
]

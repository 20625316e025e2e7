"""reprolint — project-aware determinism & discipline analysis.

The simulator's headline guarantees (byte-identical seeded runs,
empty-fault-plan identity, batch/scalar and parallel/serial
equivalence) rest on conventions that no runtime test can see a
violation of until it has already perturbed an event stream: time must
come from the sim clock, randomness from named RNG streams, iteration
from ordered sources — and, per the paper's own findings, access-token
values must never escape into telemetry.  ``reprolint`` turns those
conventions into a static gate built on a project graph (symbol table,
import/call graph) with function summaries computed to interprocedural
convergence (SCC-ordered fixpoint over the call graph, including a
mutation-effect lattice) and a flow-sensitive taint engine.

Rules
-----
RL000  parse errors (unparsable files are findings, not crashes)
RL001  no wall-clock reads (``time.time``/``monotonic``/``sleep``,
       ``datetime.now``/``utcnow``) outside the allowlisted perf shell
RL002  no global/unseeded randomness (module-level ``random.*`` calls,
       ``random.Random()`` without a seed, ``SystemRandom``)
RL003  no nondeterministic ordering feeding iteration (``set``
       literals/calls iterated unsorted, ``id()``-keyed sorts,
       unsorted ``os.listdir``/``glob``/``iterdir``)
RL004  no entropy/environment leaks (``uuid1``/``uuid4``, ``secrets``,
       ``os.urandom``, ``os.environ`` reads, salted builtin ``hash()``)
RL005  exception discipline (no bare/broad ``except`` that swallows
       without re-raising, using the bound exception, or logging)
RL101  token taint: token values must not reach logging sinks
RL102  token taint: token values must not reach exception messages or
       ``error_envelope`` renderers
RL103  token taint: token values must not be persisted to checkpoints
       or exported experiment artifacts
RL201  no RNG stream construction at module scope
RL202  no cross-entity RNG stream sharing (duplicate literal stream
       names, handing ``self.rng`` to another entity, reaching into
       ``other.rng``)
RL203  no raw ``%``/``//``/``/`` arithmetic on sim-clock readings
       outside ``repro/sim/``
RL301  collusion/honeypot code must not mutate the platform directly
RL302  …nor launder the mutation through a helper outside graphapi
RL401  snapshot-protocol classes (export_*/install_*), capture/install
       pairs and *Checkpoint dataclasses must cover every mutable
       attribute / captured key / field
RL403  journal frame payloads must round-trip through the approved
       codec (encode_*/decode_* or json), never inline repr/pickle

Token taint is cleared by the registered redactor
``repro.oauth.redact.redact_token`` — log/raise/persist the stable
8-char digest, never the raw token.  Inline
``# reprolint: disable=RL00x — why`` pragmas suppress a line;
``tools/reprolint_baseline.json`` grandfathers known findings (they
warn; anything new fails).  Run via ``repro lint`` or
``python -m repro.lint``; ``--changed [REF]`` lints only modified
files, ``--format sarif`` emits SARIF 2.1.0.
"""

from repro.lint.engine import LintEngine, LintReport, lint_source
from repro.lint.findings import Finding, Severity
from repro.lint.graph import ProjectGraph
from repro.lint.rules import DEFAULT_ALLOWLIST, default_rules

__all__ = [
    "DEFAULT_ALLOWLIST",
    "Finding",
    "LintEngine",
    "LintReport",
    "ProjectGraph",
    "Severity",
    "default_rules",
    "lint_source",
]

"""The BENCH file schema (``repro-bench/1``) and its validator.

A BENCH file is a JSON document::

    {
      "schema": "repro-bench/1",
      "machine": {"platform": str, "python": str, "numpy": str,
                  "cpu_count": int,
                  # optional, absent in pre-backend files (== inline):
                  "backend": str, "workers": int, "transport": str},
      "kernels": bool,          # kernels enabled for the experiment runs
      "quick": bool,            # --quick sizes
      "experiments": [
        {"name": str, "n": int, "p": int, "seconds": float,
         "L_max": int, "rounds": int, "out_size": int}, ...
      ],
      "speedups": [             # kernels on-vs-off pairs
        {"name": str, "n": int, "p": int,
         "seconds_on": float, "seconds_off": float, "speedup": float,
         "L_max": int, "rounds": int,
         "identical": bool,    # on/off stats + output byte-identical
         "oracle_ok": bool}, ...
      ],
      "scaling": [              # optional: backend-scaling sweep (x4)
        {"name": str, "n": int, "p": int,
         "backend": str, "workers": int, "transport": str,
         "seconds": float, "speedup": float,   # inline_s / this_s
         "L_max": int, "rounds": int, "out_size": int,
         "identical": bool}, ...  # matches the inline reference exactly
      ],
      "x7": [                   # optional: planner predicted-vs-measured
        {"name": str,           # scenario name
         "strategy": str,       # the candidate executed for this record
         "n": int, "p": int,
         "chosen": bool,        # the cost model picked this candidate
         "predicted_load": float, "measured_load": int,
         "predicted_rounds": int, "measured_rounds": int,
         "ratio": float,        # measured_load / predicted_load
         "seconds": float, "out_size": int}, ...
      ],
      "x8": [                   # optional: concurrent service throughput
        {"name": str,           # arm name, e.g. "clients4" or "split2"
         "clients": int,        # concurrent client threads
         "workers": int,        # service worker threads
         "split": int,          # query split factor (1 = no rewrite)
         "queries": int,        # requests issued across all clients
         "completed": int, "rejected": int,
         "seconds": float,      # wall time of the whole arm
         "queries_per_second": float,
         "cache_hits": int, "cache_misses": int,
         "cache_hit_rate": float,
         "identical": bool}, ...  # every result byte-matched the serial
                                  # baseline (canonical row order)
      ],
      "transport_ab": [         # optional: shm row-packing on/off bytes
        {"name": str, "n": int, "p": int, "workers": int,
         "rows_packing": bool,  # REPRO_SHM_ROWS state for this run
         "seconds": float,
         "shm_bytes": int,      # bytes carried via shared memory (both ways)
         "pickle_bytes": int,   # bytes carried via queue pickle (both ways)
         "L_max": int, "rounds": int, "out_size": int,
         "identical": bool}, ...  # both modes agree with each other
      ],
      "x9": [                   # optional: dispatch-protocol overhead sweep
        {"name": str, "n": int, "p": int, "workers": int,
         "queries": int,        # repeated runs through one pool
         "protocol": str,       # "resident" or "snapshot"
         "seconds": float,
         "queue_messages": int, # coordinator->worker round-trips
         "snapshot_dispatches": int,  # messages shipping a full payload
         "shm_bytes_out": int, "pickle_bytes_out": int,
         "dispatch_bytes_out": int,
         "resident_hits": int, "resident_bytes_saved": int,
         "fallback_dispatches": int,
         "dispatch_ratio": float,  # snapshot/resident snapshot_dispatches
         "pickle_ratio": float,    # snapshot/resident pickle_bytes_out
         "identical": bool}, ...   # every run matched the inline reference
      ]
    }

Validation is hand-rolled (no jsonschema dependency): it returns a flat
list of human-readable error strings, empty when the document conforms.
"""

from __future__ import annotations

from typing import Any

SCHEMA_VERSION = "repro-bench/1"

__all__ = ["SCHEMA_VERSION", "validate_bench"]

_MACHINE_FIELDS: dict[str, type] = {
    "platform": str,
    "python": str,
    "numpy": str,
    "cpu_count": int,
}

# Written by every current runner, but optional so files from before the
# execution-backend layer still validate (their absence means inline).
_MACHINE_OPTIONAL_FIELDS: dict[str, type] = {
    "backend": str,
    "workers": int,
    "transport": str,
}

_EXPERIMENT_FIELDS: dict[str, tuple[type, ...]] = {
    "name": (str,),
    "n": (int,),
    "p": (int,),
    "seconds": (int, float),
    "L_max": (int,),
    "rounds": (int,),
    "out_size": (int,),
}

_SPEEDUP_FIELDS: dict[str, tuple[type, ...]] = {
    "name": (str,),
    "n": (int,),
    "p": (int,),
    "seconds_on": (int, float),
    "seconds_off": (int, float),
    "speedup": (int, float),
    "L_max": (int,),
    "rounds": (int,),
    "identical": (bool,),
    "oracle_ok": (bool,),
}

_SCALING_FIELDS: dict[str, tuple[type, ...]] = {
    "name": (str,),
    "n": (int,),
    "p": (int,),
    "backend": (str,),
    "workers": (int,),
    "transport": (str,),
    "seconds": (int, float),
    "speedup": (int, float),
    "L_max": (int,),
    "rounds": (int,),
    "out_size": (int,),
    "identical": (bool,),
}


_X7_FIELDS: dict[str, tuple[type, ...]] = {
    "name": (str,),
    "strategy": (str,),
    "n": (int,),
    "p": (int,),
    "chosen": (bool,),
    "predicted_load": (int, float),
    "measured_load": (int,),
    "predicted_rounds": (int,),
    "measured_rounds": (int,),
    "ratio": (int, float),
    "seconds": (int, float),
    "out_size": (int,),
}


_X8_FIELDS: dict[str, tuple[type, ...]] = {
    "name": (str,),
    "clients": (int,),
    "workers": (int,),
    "split": (int,),
    "queries": (int,),
    "completed": (int,),
    "rejected": (int,),
    "seconds": (int, float),
    "queries_per_second": (int, float),
    "cache_hits": (int,),
    "cache_misses": (int,),
    "cache_hit_rate": (int, float),
    "identical": (bool,),
}


_TRANSPORT_FIELDS: dict[str, tuple[type, ...]] = {
    "name": (str,),
    "n": (int,),
    "p": (int,),
    "workers": (int,),
    "rows_packing": (bool,),
    "seconds": (int, float),
    "shm_bytes": (int,),
    "pickle_bytes": (int,),
    "L_max": (int,),
    "rounds": (int,),
    "out_size": (int,),
    "identical": (bool,),
}


_X9_FIELDS: dict[str, tuple[type, ...]] = {
    "name": (str,),
    "n": (int,),
    "p": (int,),
    "workers": (int,),
    "queries": (int,),
    "protocol": (str,),
    "seconds": (int, float),
    "queue_messages": (int,),
    "snapshot_dispatches": (int,),
    "shm_bytes_out": (int,),
    "pickle_bytes_out": (int,),
    "dispatch_bytes_out": (int,),
    "resident_hits": (int,),
    "resident_bytes_saved": (int,),
    "fallback_dispatches": (int,),
    # Mean outbound bytes per queue message; null (None) when the arm
    # sent no queue message at all — a mean over zero messages is
    # undefined and must not masquerade as "0 bytes".
    "bytes_per_message": (int, float, type(None)),
    "dispatch_ratio": (int, float),
    "pickle_ratio": (int, float),
    "identical": (bool,),
}


def _check_record(
    record: Any, fields: dict[str, tuple[type, ...]], where: str, errors: list[str]
) -> None:
    if not isinstance(record, dict):
        errors.append(f"{where}: expected an object, got {type(record).__name__}")
        return
    for field, types in fields.items():
        if field not in record:
            errors.append(f"{where}: missing field {field!r}")
            continue
        value = record[field]
        # bool is an int subclass; only accept it where bool is expected.
        if isinstance(value, bool) and bool not in types:
            errors.append(f"{where}.{field}: expected {types[0].__name__}, got bool")
        elif not isinstance(value, types):
            errors.append(
                f"{where}.{field}: expected {types[0].__name__}, "
                f"got {type(value).__name__}"
            )
        elif (
            value is not None
            and not isinstance(value, (str, bool))
            and value < 0
        ):
            errors.append(f"{where}.{field}: must be non-negative, got {value!r}")


def validate_bench(document: Any) -> list[str]:
    """All schema violations in ``document`` (empty list = valid)."""
    errors: list[str] = []
    if not isinstance(document, dict):
        return [f"top level: expected an object, got {type(document).__name__}"]
    if document.get("schema") != SCHEMA_VERSION:
        errors.append(
            f"schema: expected {SCHEMA_VERSION!r}, got {document.get('schema')!r}"
        )
    machine = document.get("machine")
    if not isinstance(machine, dict):
        errors.append("machine: expected an object")
    else:
        for field, typ in _MACHINE_FIELDS.items():
            value = machine.get(field)
            if not isinstance(value, typ) or isinstance(value, bool):
                errors.append(f"machine.{field}: expected {typ.__name__}")
        for field, typ in _MACHINE_OPTIONAL_FIELDS.items():
            if field not in machine:
                continue
            value = machine[field]
            if not isinstance(value, typ) or isinstance(value, bool):
                errors.append(f"machine.{field}: expected {typ.__name__}")
    for flag in ("kernels", "quick"):
        if not isinstance(document.get(flag), bool):
            errors.append(f"{flag}: expected a bool")
    experiments = document.get("experiments")
    if not isinstance(experiments, list) or not experiments:
        errors.append("experiments: expected a non-empty list")
    else:
        seen: set[str] = set()
        for i, record in enumerate(experiments):
            _check_record(record, _EXPERIMENT_FIELDS, f"experiments[{i}]", errors)
            name = record.get("name") if isinstance(record, dict) else None
            if isinstance(name, str):
                if name in seen:
                    errors.append(f"experiments[{i}]: duplicate name {name!r}")
                seen.add(name)
    speedups = document.get("speedups", [])  # optional: absent == none run
    if not isinstance(speedups, list):
        errors.append("speedups: expected a list")
    else:
        for i, record in enumerate(speedups):
            _check_record(record, _SPEEDUP_FIELDS, f"speedups[{i}]", errors)
    scaling = document.get("scaling", [])  # optional: only x4 runs emit it
    if not isinstance(scaling, list):
        errors.append("scaling: expected a list")
    else:
        for i, record in enumerate(scaling):
            _check_record(record, _SCALING_FIELDS, f"scaling[{i}]", errors)
            if isinstance(record, dict):
                backend = record.get("backend")
                if isinstance(backend, str) and backend not in ("inline", "process"):
                    errors.append(
                        f"scaling[{i}].backend: expected 'inline' or "
                        f"'process', got {backend!r}"
                    )
    x7 = document.get("x7", [])  # optional: only planner (x7) runs emit it
    if not isinstance(x7, list):
        errors.append("x7: expected a list")
    else:
        pairs: set[tuple[Any, Any]] = set()
        for i, record in enumerate(x7):
            _check_record(record, _X7_FIELDS, f"x7[{i}]", errors)
            if isinstance(record, dict):
                pair = (record.get("name"), record.get("strategy"))
                if pair in pairs:
                    errors.append(
                        f"x7[{i}]: duplicate (name, strategy) pair {pair!r}"
                    )
                pairs.add(pair)
    x8 = document.get("x8", [])  # optional: only service (x8) runs emit it
    if not isinstance(x8, list):
        errors.append("x8: expected a list")
    else:
        names: set[Any] = set()
        for i, record in enumerate(x8):
            _check_record(record, _X8_FIELDS, f"x8[{i}]", errors)
            if isinstance(record, dict):
                name = record.get("name")
                if name in names:
                    errors.append(f"x8[{i}]: duplicate name {name!r}")
                names.add(name)
    transport_ab = document.get("transport_ab", [])  # optional section
    if not isinstance(transport_ab, list):
        errors.append("transport_ab: expected a list")
    else:
        for i, record in enumerate(transport_ab):
            _check_record(record, _TRANSPORT_FIELDS, f"transport_ab[{i}]", errors)
    x9 = document.get("x9", [])  # optional: only protocol (x9) runs emit it
    if not isinstance(x9, list):
        errors.append("x9: expected a list")
    else:
        arms: set[tuple[Any, Any]] = set()
        for i, record in enumerate(x9):
            _check_record(record, _X9_FIELDS, f"x9[{i}]", errors)
            if isinstance(record, dict):
                protocol = record.get("protocol")
                if isinstance(protocol, str) and protocol not in (
                    "resident", "snapshot"
                ):
                    errors.append(
                        f"x9[{i}].protocol: expected 'resident' or "
                        f"'snapshot', got {protocol!r}"
                    )
                arm = (record.get("name"), protocol)
                if arm in arms:
                    errors.append(f"x9[{i}]: duplicate (name, protocol) {arm!r}")
                arms.add(arm)
    return errors

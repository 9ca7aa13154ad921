"""Canonical JSON: the one byte-stable encoding behind every content hash.

Result-store keys, decoded-trace keys, bench ``stats_digest`` values and
the chaos harness's byte-identity checks all hash this form, so it must
never change: a different spelling re-keys every cache entry.  The module
imports nothing from :mod:`repro`, so any layer can use it without an
import cycle.
"""

from __future__ import annotations

import json


def canonical_json(payload) -> str:
    """``payload`` as JSON with sorted keys, no whitespace and ``str()``
    for anything JSON cannot encode natively."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)

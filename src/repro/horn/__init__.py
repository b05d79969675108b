"""Constrained-Horn-clause view of GFA problems (§4.3, "Constrained Horn clauses")."""

from repro.horn.clauses import HornClause, HornSystem, encode_gfa_as_horn

__all__ = ["HornClause", "HornSystem", "encode_gfa_as_horn"]

"""Minimal structural validator for the published run-report schema.

Supports the subset of JSON-schema keywords the shipped schema uses:
type, required, properties, enum, a uniform value schema for objects
(additionalPropertiesSchema) and one for array items (items).  Returns a
list of problems; empty is valid.
"""

import json
import os

_SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "runreport_schema.json")
_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
}


def load_schema():
    with open(_SCHEMA_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _check(doc, schema, path, problems):
    expected = schema.get("type")
    if expected:
        pytype = _TYPES[expected]
        if expected == "integer" and isinstance(doc, bool):
            problems.append("%s: expected integer, got boolean" % path)
            return
        if not isinstance(doc, pytype):
            problems.append("%s: expected %s, got %s" % (path, expected, type(doc).__name__))
            return
    if "enum" in schema and doc not in schema["enum"]:
        problems.append("%s: %r not among %s" % (path, doc, schema["enum"]))
    for key in schema.get("required", []):
        if key not in doc:
            problems.append("%s: required field %r missing" % (path, key))
    for key, sub in schema.get("properties", {}).items():
        if key in doc:
            _check(doc[key], sub, "%s/%s" % (path, key), problems)
    uniform = schema.get("additionalPropertiesSchema")
    if uniform and isinstance(doc, dict):
        for key, value in doc.items():
            _check(value, uniform, "%s/%s" % (path, key), problems)
    items = schema.get("items")
    if items and isinstance(doc, list):
        for i, value in enumerate(doc):
            _check(value, items, "%s/%d" % (path, i), problems)


def validate_report(doc):
    """Problems in `doc` relative to the run-report schema (empty = valid)."""
    problems = []
    _check(doc, load_schema(), "", problems)
    return problems

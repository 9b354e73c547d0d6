"""Containers for certified harmonic families, and the certificate builders
shared by every model: a claim is an equation checked by a zero verdict on
its residual."""

from __future__ import annotations

from .. import expr as ex
from .. import numcheck as nc
from ..operator import certify_eigen
from ..record import FrozenRecord, Record


class SeriesNotConvergedError(Exception):
    """A series did not converge within its term budget (a solver limitation)."""


class Certificate(FrozenRecord):
    """payload: ZeroReport, EigenResult, or a plain dict."""

    _fields = ("name", "payload")

    @property
    def ok(self) -> bool:
        p = self.payload
        if hasattr(p, "is_zero"):
            return bool(p.is_zero)
        if hasattr(p, "ok"):
            return bool(p.ok)
        return bool(p.get("ok", False))

    def to_json(self) -> dict:
        p = self.payload
        body = p.to_json() if hasattr(p, "to_json") else dict(p)
        return {"name": self.name, "ok": self.ok, **body}


class HarmonicFamily(Record):
    """A labeled set of eigenfunction scalars/tensors with residual certificates.

    eigenvalues: name -> Expr; components: label -> Expr (the family
    content); assemblies: tag -> list of monomial dicts."""

    _fields = ("model", "kind", "labels", "eigenvalues", "components", "amplitudes",
               "assemblies", "certificates", "notes")

    def __init__(self, model: str, kind: str, labels: dict, eigenvalues: dict, components: dict,
                 amplitudes: tuple = (), assemblies: dict | None = None,
                 certificates: list | None = None, notes: tuple = ()):
        super().__init__(model, kind, labels, eigenvalues, components, amplitudes,
                         {} if assemblies is None else assemblies,
                         [] if certificates is None else certificates, notes)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.certificates)

    def certificate(self, name: str) -> Certificate:
        for c in self.certificates:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "kind": self.kind,
            "labels": self.labels,
            "eigenvalues": {k: ex.unparse(v) for k, v in self.eigenvalues.items()},
            "amplitudes": list(self.amplitudes),
            "components": {k: ex.unparse(v) for k, v in self.components.items()},
            "assemblies": self.assemblies,
            "certificates": [c.to_json() for c in self.certificates],
            "notes": list(self.notes),
            "certified": self.ok,
        }


def claim(name: str, lhs: ex.Expr, rhs: ex.Expr, box: dict, seed: int) -> Certificate:
    """The certificate of lhs = rhs on the box: a zero verdict on lhs - rhs."""
    return Certificate(name, nc.is_zero(ex.sub(lhs, rhs), box, seed))


def assembly_claim(op, tens, lam, seed: int, tag: str | None = None) -> Certificate:
    """The certificate of G T = lam T on an assembled tensor, componentwise.

    Named `casimir-eigenvalue`, followed by the assembly's tag in a document
    that holds one assembly per weight."""
    name = "casimir-eigenvalue" if tag is None else f"casimir-eigenvalue {tag}"
    return Certificate(name, certify_eigen(op, tens, lam, seed))


def verdict(cert_json: dict) -> str:
    """The string `verify --family` compares for a certificate in its JSON
    form: its zero verdict if it has one, else `ok` or `failed`."""
    return cert_json.get("verdict", "ok" if cert_json.get("ok") else "failed")

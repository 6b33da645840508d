"""The spec-file and registry layer shared by machines and workloads.

Both axes of the paper's matrix — machine configurations and workloads —
are declarative specs (:mod:`repro.machine.spec`,
:mod:`repro.workload.spec`).  This module owns every rule the two kinds
have in common, so they cannot drift apart:

* :class:`SpecError`, carrying the dotted path of the offending field,
  and the checks that raise it: :func:`check_header` (schema version
  and name), :func:`check_table` (known keys) and :func:`check_leaf`
  (leaf types);
* :func:`read_spec_file` / :func:`load_spec_file`, the JSON/TOML reader;
* :func:`canonical_sha256` / :func:`save_tree`, the canonical-JSON
  fingerprint and on-disk form;
* :class:`SpecRegistry`, the named registry: built-ins plus every spec
  file in a directory, with one resolution rule for both kinds (see
  ``docs/EXTENDING.md`` "Resolving a spec token").

Standard library only: the spec modules import this one, so it must not
import them back.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import (
    Any, Callable, Dict, Hashable, Iterable, List, Mapping, Optional,
    Sequence, Tuple, Type, Union,
)

__all__ = [
    "SPEC_SUFFIXES",
    "SpecError",
    "SpecRegistry",
    "UnknownSpecError",
    "canonical_sha256",
    "check_header",
    "check_leaf",
    "check_table",
    "load_spec_file",
    "read_spec_file",
    "save_tree",
]

#: Spec file suffixes, in registry listing order.
SPEC_SUFFIXES = (".json", ".toml")

#: Leaf annotations the schemas use, by type or by the string form
#: ``from __future__ import annotations`` leaves on dataclass fields.
_LEAF_TYPES: Dict[Any, type] = {
    int: int, float: float, bool: bool, str: str,
    "int": int, "float": float, "bool": bool, "str": str,
}


class SpecError(ValueError):
    """A spec failed to load or validate.

    Carries the dotted path of the offending field so CLI error lines
    point at the exact key (``machine.l2.associativity: ...``).
    """

    def __init__(self, message: str, path: Sequence[str] = ()):
        self.path = tuple(path)
        prefix = ".".join(self.path)
        super().__init__(f"{prefix}: {message}" if prefix else message)


def check_leaf(value: Any, annotation: Any, path: Sequence[str]) -> Any:
    """Validate a leaf value against its dataclass field type.

    Integer-valued floats are coerced to ``float`` (JSON and TOML both
    allow ``8`` where a model parameter is ``8.0``); the conversion is
    exact for every value a schema can hold, so the canonical form —
    and therefore the fingerprint — does not depend on the spelling.
    """
    kind = _LEAF_TYPES.get(annotation)
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(f"expected a number, got {value!r}", path)
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(f"expected an integer, got {value!r}", path)
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise SpecError(f"expected a boolean, got {value!r}", path)
        return value
    if kind is str:
        if not isinstance(value, str):
            raise SpecError(f"expected a string, got {value!r}", path)
        return value
    raise SpecError(f"unsupported field type {annotation!r}", path)


def check_table(
    value: Any,
    path: Sequence[str],
    valid: Optional[Iterable[str]] = None,
    what: str = "field(s)",
) -> Mapping[str, Any]:
    """Require a table whose keys (when ``valid`` is given) are all known."""
    if not isinstance(value, Mapping):
        raise SpecError(f"expected a table, got {value!r}", path)
    if valid is not None:
        valid = set(valid)
        unknown = set(value) - valid
        if unknown:
            raise SpecError(
                f"unknown {what} {sorted(unknown)} (valid: {sorted(valid)})",
                path,
            )
    return value


def check_header(
    tree: Mapping[str, Any], schema: Any, version: int
) -> str:
    """Check a tree's schema version; return its required ``name``."""
    if schema != version:
        raise SpecError(
            f"unsupported schema version {schema!r} "
            f"(this build reads version {version})",
            ("schema",),
        )
    name = tree.get("name")
    if not isinstance(name, str) or not name:
        raise SpecError(
            f"expected a non-empty string, got {name!r}", ("name",)
        )
    return name


# ----------------------------------------------------------------------
# Files and identity
# ----------------------------------------------------------------------


def read_spec_file(path: Path) -> Dict[str, Any]:
    """Parse a ``.json``/``.toml`` spec file to its raw, unvalidated tree."""
    suffix = path.suffix.lower()
    if suffix not in SPEC_SUFFIXES:
        raise SpecError(
            f"{path}: unsupported spec format (unsupported spec suffix "
            f"{suffix!r}; expected .json or .toml)"
        )
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from None
    if suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from None
    else:
        try:
            import tomllib
        except ImportError:  # pragma: no cover - Python < 3.11
            raise SpecError(
                f"{path}: TOML specs need Python 3.11+ (tomllib); "
                "use JSON instead"
            ) from None
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError(f"{path}: invalid TOML: {exc}") from None
    if not isinstance(data, dict):
        raise SpecError(f"{path}: expected a table, got {data!r}")
    return data


def load_spec_file(
    path: Union[str, Path],
    build: Callable[..., Any],
    resolve: Optional[Callable[[str], Any]] = None,
):
    """Read one spec file and validate it with ``build(tree, path,
    resolve)``; errors name the file.  ``resolve`` maps a ``base`` name
    to its spec (workloads inherit; machines ignore it)."""
    path = Path(path)
    data = read_spec_file(path)
    try:
        return build(data, path, resolve)
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from None


def canonical_sha256(tree: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON form of a spec tree."""
    payload = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def save_tree(tree: Mapping[str, Any], path: Union[str, Path]) -> Path:
    """Write a spec tree as pretty-printed, key-sorted JSON."""
    path = Path(path)
    path.write_text(
        json.dumps(tree, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------


class UnknownSpecError(KeyError):
    """An unregistered spec name (the CLI maps this to exit 2).

    Subclasses name the kind (``machine``, ``workload``, ``benchmark``)
    that appears in the message.
    """

    kind = "spec"
    #: How the message introduces the list of valid names.
    choices_label = "valid choices"

    def __init__(self, name: str, valid: Iterable[str]):
        import difflib  # only the error path needs it

        self.name = name
        self.valid: List[str] = sorted(valid)
        # The closest valid name, compared case-insensitively.
        folded = {v.casefold(): v for v in self.valid}
        match = difflib.get_close_matches(name.casefold(), list(folded), n=1)
        self.suggestion = folded[match[0]] if match else None
        message = (
            f"unknown {self.kind} {name!r}; "
            f"{self.choices_label}: {', '.join(self.valid)}"
        )
        if self.suggestion is not None:
            message += f" (did you mean {self.suggestion!r}?)"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError quotes its payload by default
        return self.args[0]


def _dir_signature(directory: Path) -> tuple:
    """(name, mtime_ns, size) of every spec file: one scandir pass."""
    entries = []
    with os.scandir(directory) as it:
        for entry in it:
            if entry.name.lower().endswith(SPEC_SUFFIXES):
                stat = entry.stat()
                entries.append((entry.name, stat.st_mtime_ns, stat.st_size))
    return tuple(sorted(entries))


class SpecRegistry:
    """Built-in specs plus every spec file in one directory.

    ``builtins(variant)`` returns the code-defined specs; ``variant`` is
    whatever parameterizes them (the problem class for workloads,
    ``None`` for machines), and each variant keeps its own cached
    listing.  The directory is ``$env_var`` when set, else
    ``default_dir``.

    A listing is reused while the directory's signature — one scandir
    pass of (name, mtime_ns, size) — is unchanged, so a hit costs one
    scandir plus a dict lookup and edits are picked up without a
    restart.  Specs are frozen, so the shared instances are safe.
    """

    def __init__(
        self,
        spec_type: type,
        unknown: Type[UnknownSpecError],
        env_var: str,
        default_dir: Path,
        builtins: Callable[[Any], Dict[str, Any]],
        build: Callable[..., Any],
    ):
        self.spec_type = spec_type
        self.unknown = unknown
        self.env_var = env_var
        self.default_dir = default_dir
        self._builtins = builtins
        self._build = build
        #: variant -> (directory, signature, listing)
        self._cache: Dict[
            Hashable, Tuple[Optional[Path], Optional[tuple], Dict[str, Any]]
        ] = {}

    def directory(self) -> Optional[Path]:
        """The spec-file directory, or ``None`` when absent."""
        env = os.environ.get(self.env_var, "").strip()
        path = Path(env) if env else self.default_dir
        return path if path.is_dir() else None

    def listing(self, variant: Hashable = None) -> Dict[str, Any]:
        """Every registered spec, keyed by name (a fresh dict)."""
        return dict(self._entries(variant))

    def _entries(self, variant: Hashable) -> Dict[str, Any]:
        directory = self.directory()
        signature = _dir_signature(directory) if directory else None
        cached = self._cache.get(variant)
        if (
            cached is not None
            and cached[0] == directory
            and cached[1] == signature
        ):
            return cached[2]
        entries = self._load(directory, variant)
        self._cache[variant] = (directory, signature, entries)
        return entries

    def _load(
        self, directory: Optional[Path], variant: Hashable
    ) -> Dict[str, Any]:
        """Built-ins, then the directory's files: a file shadows a
        built-in of the same name; two files claiming one name is an
        error."""
        out = dict(self._builtins(variant))
        if directory is None:
            return out
        # Two passes: read every file's raw tree first so ``base`` can
        # reference any registered name regardless of file order.
        raws: Dict[str, Tuple[Path, dict]] = {}
        for suffix in SPEC_SUFFIXES:
            for path in sorted(directory.glob(f"*{suffix}")):
                data = read_spec_file(path)
                name = data.get("name")
                if not isinstance(name, str) or not name:
                    raise SpecError(
                        f"{path}: name: expected a non-empty string, "
                        f"got {name!r}"
                    )
                if name in raws:
                    raise SpecError(
                        f"duplicate {self.unknown.kind} name {name!r}: "
                        f"{raws[name][0]} and {path}"
                    )
                raws[name] = (path, data)

        built: Dict[str, Any] = {}
        building: List[str] = []

        def resolve(name: str) -> Any:
            if name in built:
                return built[name]
            if name in raws:
                if name in building:
                    cycle = " -> ".join(building + [name])
                    raise SpecError(
                        f"base inheritance cycle: {cycle}", ("base",)
                    )
                path, data = raws[name]
                building.append(name)
                try:
                    built[name] = self._build(data, path, resolve)
                except SpecError as exc:
                    raise SpecError(f"{path}: {exc}") from None
                finally:
                    building.pop()
                return built[name]
            if name in out:
                return out[name]
            raise SpecError(
                f"unknown base {self.unknown.kind} {name!r} "
                f"(registered: {sorted(set(out) | set(raws))})",
                ("base",),
            )

        for name in raws:
            out[name] = resolve(name)
        return out

    def load(self, path: Union[str, Path], variant: Hashable = None) -> Any:
        """Load one spec file; its ``base`` resolves through the registry."""
        return load_spec_file(
            path, self._build, lambda name: self.resolve(name, variant)
        )

    def resolve(self, token: Any, variant: Hashable = None) -> Any:
        """Resolve a token to a spec.

        In order: a spec instance is returned as-is; a path (a
        :class:`~pathlib.Path`, or a string containing a separator or
        ending in ``.json``/``.toml``) is loaded; otherwise the token is
        a registered name — exact, then case-folded — or a full or
        12-character fingerprint.  Anything else raises the registry's
        :class:`UnknownSpecError` subclass with a suggestion.
        """
        if isinstance(token, self.spec_type):
            return token
        if (
            isinstance(token, Path)
            or os.sep in token
            or "/" in token
            or token.lower().endswith(SPEC_SUFFIXES)
        ):
            return self.load(token, variant)
        entries = self._entries(variant)
        spec = entries.get(token)
        if spec is not None:
            return spec
        folded = token.casefold()
        matches = [s for n, s in entries.items() if n.casefold() == folded]
        if not matches and len(token) in (12, 64):
            matches = [
                s for s in entries.values()
                if token in (s.fingerprint, s.short_fingerprint)
            ]
        if len(matches) == 1:
            return matches[0]
        raise self.unknown(token, entries)

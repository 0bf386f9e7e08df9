"""Run configuration: flat key=value files plus command-line overrides."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields

from .errors import ConfigurationError
from .halo import STRATEGIES
from .topology import decompose
from .transport import TransportModel

PHYSICS_MODES = ("none", "full")


def parse_dims(text):
    """Parse '4,3,2' or '4x3x2' into a 3-tuple of positive ints."""
    if isinstance(text, (tuple, list)):
        parts = list(text)
    else:
        parts = str(text).replace("x", ",").split(",")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigurationError(f"cannot parse dimensions from {text!r}") from None
    if len(dims) != 3 or min(dims) < 1:
        raise ConfigurationError(f"need three positive dimensions, got {text!r}")
    return dims


def parse_bool(text):
    value = str(text).strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"cannot parse boolean from {text!r}")


def _setting(parser, default=None, key=None):
    """A RunConfig field: its default, parser and config key (None: its name)."""
    return field(default=default, metadata={"parser": parser, "key": key})


@dataclass
class RunConfig:
    """Everything a benchmark, halo test or regression run needs.

    Exactly one of global_dims / local_dims must be given together with
    proc_dims; global dims are decomposed uniformly.  Each field is one
    config key; a dotted key nests in ``meta()``.
    """

    proc_dims: tuple = _setting(parse_dims)
    local_dims: tuple = _setting(parse_dims)
    global_dims: tuple = _setting(parse_dims)
    m: int = _setting(int, 19)
    strategy: str = _setting(str, "blocking")
    iterations: int = _setting(int, 2000)
    repetitions: int = _setting(int, 5)
    tau: float = _setting(float, 1.0)
    seed: int = _setting(int, 12345)
    physics: str = _setting(str, "none")
    warmup: int = _setting(int, 10)
    periodic: bool = _setting(parse_bool, True)
    overlap_enabled: bool = _setting(parse_bool, False, "overlap.enabled")
    overlap_intensity: int = _setting(int, 0, "overlap.intensity")
    watchdog_seconds: float = _setting(float, 30.0, "transport.watchdog_seconds")
    model_latency_us: float = _setting(float, None, "transport.model.latency_us")
    model_bandwidth_MBps: float = _setting(float, None, "transport.model.bandwidth_MBps")
    output: str = _setting(str)

    def validate(self):
        if self.proc_dims is None:
            raise ConfigurationError("proc_dims is required (no automatic factorisation)")
        if (self.local_dims is None) == (self.global_dims is None):
            raise ConfigurationError("give exactly one of local_dims or global_dims")
        if not 1 <= int(self.m) <= 27:
            raise ConfigurationError(f"m={self.m} outside the supported 1..27 range")
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(f"strategy must be one of {tuple(STRATEGIES)}")
        if self.physics not in PHYSICS_MODES:
            raise ConfigurationError(f"physics must be one of {PHYSICS_MODES}")
        if self.physics == "full" and self.m not in (19, 27):
            raise ConfigurationError("full physics needs a canonical velocity set (m=19 or 27)")
        if self.iterations < 1 or self.repetitions < 1:
            raise ConfigurationError("iterations and repetitions must be at least 1")
        if self.warmup < 0:
            raise ConfigurationError("warmup cannot be negative")
        if self.seed < 0:
            raise ConfigurationError("seed cannot be negative")
        if not self.tau > 0.5:
            raise ConfigurationError("tau must exceed 0.5")
        # a run waits up to twice the watchdog for its ranks, in one wait
        if not 0 < self.watchdog_seconds <= threading.TIMEOUT_MAX / 2:
            raise ConfigurationError(
                f"watchdog timeout must be positive and at most {threading.TIMEOUT_MAX / 2:g}s")
        if self.overlap_enabled and self.strategy != "nonblocking":
            raise ConfigurationError("overlap requires the nonblocking strategy")
        if self.overlap_intensity < 0:
            raise ConfigurationError("overlap intensity cannot be negative")
        if (self.model_latency_us is None) != (self.model_bandwidth_MBps is None):
            raise ConfigurationError(
                "transport model needs both latency_us and bandwidth_MBps"
            )
        self.transport_model()
        self.resolve_dims()
        return self

    def transport_model(self):
        """The injected cost model, or None when none is set."""
        if self.model_latency_us is None:
            return None
        try:
            return TransportModel(self.model_latency_us * 1e-6, self.model_bandwidth_MBps)
        except ValueError as exc:
            raise ConfigurationError(f"bad transport model: {exc}") from None

    def resolve_dims(self):
        """(proc_dims, local_dims, global_dims) with divisibility enforced."""
        proc = parse_dims(self.proc_dims)
        if self.global_dims is not None:
            global_ = parse_dims(self.global_dims)
            local = decompose(global_, proc)
        else:
            local = parse_dims(self.local_dims)
            global_ = tuple(l * p for l, p in zip(local, proc))
        return proc, local, global_

    def meta(self):
        """Every setting but ``output``, nested by the dots of its key, with the
        resolved dims and ``transport.model`` None when no model is set."""
        proc, local, global_ = self.resolve_dims()
        out = {}
        for name, parents, leaf in _META_PATHS:
            node = out
            for part in parents:
                node = node.setdefault(part, {})
            node[leaf] = getattr(self, name)
        out.update(proc_dims=list(proc), local_dims=list(local), global_dims=list(global_))
        if self.model_latency_us is None:
            out["transport"]["model"] = None
        return out


# config-file / --set key -> (attribute, parser)
SETTINGS = {f.metadata["key"] or f.name: (f.name, f.metadata["parser"])
            for f in fields(RunConfig)}
# (attribute, enclosing dict keys, own key) of each setting meta() records
_META_PATHS = [(name, key.split(".")[:-1], key.split(".")[-1])
               for key, (name, _) in SETTINGS.items() if key != "output"]


def load_config_file(path):
    """Read a flat key=value UTF-8 file, with or without a byte-order mark;
    '#' starts a comment, blank lines ignored.  A file that cannot be read as
    such is a ConfigurationError."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"cannot read config file {path}: not UTF-8 text "
                                 f"({exc.reason})") from None
    entries = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        entries[key] = value
    return entries


def apply_settings(cfg, entries):
    for key, value in entries.items():
        try:
            attr, parser = SETTINGS[key]
        except KeyError:
            known = ", ".join(sorted(SETTINGS))
            raise ConfigurationError(f"unknown config key {key!r} (known: {known})") from None
        try:
            setattr(cfg, attr, parser(value))
        except (ValueError, TypeError):
            raise ConfigurationError(f"bad value {value!r} for config key {key!r}") from None
    return cfg


def build_config(path=None, overrides=None):
    """RunConfig from defaults, then a config file, then override pairs."""
    cfg = RunConfig()
    if path is not None:
        apply_settings(cfg, load_config_file(path))
    if overrides:
        apply_settings(cfg, dict(overrides))
    return cfg

"""Persistent plan/spectrum cache: warm-start planning across processes.

The in-process plan LRU (:mod:`repro.core.plan`) dies with the process.
A serving replica restarting under a scheduler therefore repays the full
planning bill — Eq. (5) segment auto-tuning, the PFA-factorisable shrink
loop, and the fused-spectrum derivation ``H_L ** steps`` — for every
distinct workload before it serves its first warm request.  This module
persists exactly those products so a fresh process skips the re-derivation:

* **key** — the SHA-256 digest of a canonical string rendering of
  :func:`repro.core.plan.plan_key` (grid shape, kernel taps/weights/name,
  fusion depth, boundary, GPU model, streamline config, requested tile,
  worker request).  The FFT backend is left out: neither stored artifact
  depends on it (the spectrum comes from NumPy's FFT, the tile from the
  geometry rule), so a plan warmed under one backend warm-starts under
  another.  Keying on the *request* — the tile
  as asked for, usually ``None`` — means the cold construction and every
  later warm lookup agree on the entry; the stored artifact carries the
  tile the auto-tuner actually resolved.  A ``tile=None`` key also names
  the geometry rule that cuts the windows, with the resolved slab count
  (:func:`repro.core.plan.geometry_rule`), so a record written under
  another rule or for another CPU count misses and is rewritten instead
  of pinning stale windows.
* **value** — a ``<digest>.json`` meta record (the key string in clear,
  for auditability, plus resolved tile / window shape / fusion depth) and
  a ``<digest>.npz`` holding the window-local fused spectrum.

Writes are atomic (same-directory temp + ``os.replace``) so a crashed or
concurrent writer can never publish a torn entry; a corrupt or stale entry
reads as a miss and is unlinked, never an error.  Import goes through
:func:`repro.core.kernels.spectrum_cache_seed` (so the seeded spectrum
feeds plan construction instead of an FFT) plus an explicit ``tile=``
override (so auto-tuning is skipped) — after which the plan is
numerically indistinguishable from a cold build.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..core.precision import complex_dtype, resolve_precision
from ..errors import ServingError
from ..observability import NULL_TELEMETRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.kernels import StencilKernel
    from ..core.plan import FlashFFTStencil

__all__ = ["PlanDiskCache", "PLAN_CACHE_ENV"]

#: Environment variable naming the default persistent plan-cache directory.
PLAN_CACHE_ENV = "REPRO_PLAN_CACHE"


def _key_string(
    grid_shape: tuple[int, ...],
    kernel: "StencilKernel",
    fused_steps: int,
    boundary: str,
    gpu,
    config,
    tile: tuple[int, ...] | None,
    workers: int | None,
    precision: str = "float64",
) -> str:
    """Render the plan-key tuple as one canonical line.

    The kernel contributes its full numeric identity (taps + weights),
    not just its display name — two kernels that happen to share a name
    must not share spectra.  GPU and config are frozen dataclasses with
    value-based reprs, so their rendering is stable across processes.

    ``precision`` joins the key for every non-reference tier, so a
    float32 entry can never collide with — and so never warm-start — a
    float64 plan.  A ``tile=None`` key ends with the geometry rule of
    :func:`repro.core.plan.geometry_rule` (``eq5`` or
    ``host-slabs:<n>``): host-window geometry follows the visible CPUs.
    """
    from ..core.plan import geometry_rule

    parts = [
        f"grid={tuple(grid_shape)}",
        f"kernel={kernel.name}:{kernel.offsets}:{kernel.weights}",
        f"fused={int(fused_steps)}",
        f"boundary={boundary}",
        f"gpu={gpu!r}",
        f"config={config!r}",
        f"tile={tile}",
        f"workers={workers}",
    ]
    if precision != "float64":
        parts.append(f"precision={precision}")
    if tile is None:
        rule = geometry_rule(tuple(grid_shape), kernel, fused_steps, boundary)
        parts.append(f"geometry={rule}")
    return "|".join(parts)


class PlanDiskCache:
    """On-disk plan/spectrum store for fresh-process warm starts.

    Parameters
    ----------
    directory:
        Cache root; created on first use.  Defaults to ``$REPRO_PLAN_CACHE``
        when set, else raises — the cache never invents a location.
    telemetry:
        Optional :class:`~repro.observability.Telemetry`; hits/misses are
        counted under ``plan_disk_hits`` / ``plan_disk_misses``.
    """

    def __init__(self, directory: "str | os.PathLike | None" = None, telemetry=None) -> None:
        if directory is None:
            directory = os.environ.get(PLAN_CACHE_ENV)
            if not directory:
                raise ServingError(
                    "PlanDiskCache needs a directory (argument or "
                    f"${PLAN_CACHE_ENV})"
                )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ keys

    @staticmethod
    def digest(key_string: str) -> str:
        return hashlib.sha256(key_string.encode("utf-8")).hexdigest()[:32]

    def _paths(self, digest: str) -> tuple[Path, Path]:
        return (
            self.directory / f"{digest}.json",
            self.directory / f"{digest}.npz",
        )

    # ----------------------------------------------------------------- store

    def put(self, key_string: str, artifacts: dict) -> str:
        """Persist one plan's :meth:`planning_artifacts` atomically.

        Safe against concurrent writers of the same key: both render the
        same content, and ``os.replace`` publishes whole files only.
        Returns the entry digest.
        """
        digest = self.digest(key_string)
        meta_path, npz_path = self._paths(digest)
        precision = str(artifacts.get("precision", "float64"))
        meta = {
            "key": key_string,
            "tile": list(artifacts["tile"]),
            "local_shape": list(artifacts["local_shape"]),
            "steps": int(artifacts["steps"]),
            "precision": precision,
        }
        # The payload is stored in the tier's own complex dtype: the dtype
        # *is* part of the artifact, and a reader cross-checks it against
        # the meta record so a hand-edited or torn entry heals as a miss.
        spectrum = np.asarray(
            artifacts["fused_spectrum"], dtype=complex_dtype(precision)
        )
        try:
            # Spectrum first: a reader keys on the meta file, so publishing
            # meta last means a visible entry always has its spectrum.
            self._atomic_write(
                npz_path, lambda fh: np.savez(fh, fused_spectrum=spectrum)
            )
            self._atomic_write(
                meta_path,
                lambda fh: fh.write(json.dumps(meta, sort_keys=True).encode()),
            )
        except OSError as e:
            raise ServingError(f"cannot write plan-cache entry {digest}: {e}") from e
        return digest

    def _atomic_write(self, path: Path, writer) -> None:
        tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                writer(fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise

    # ----------------------------------------------------------------- fetch

    def get(self, key_string: str, precision: str = "float64") -> dict | None:
        """The stored artifacts for ``key_string``, or ``None`` on a miss.

        A corrupt, torn, or key-colliding entry is treated as a miss and
        unlinked so the next :meth:`put` heals it — persistence must never
        turn into an availability problem.  ``precision`` is the tier the
        caller is about to build: an entry whose recorded precision or
        payload dtype disagrees (a float32 spectrum reached under a
        float64 key, or vice versa) is corrupt by definition and heals as
        a miss rather than warm-starting the wrong tier.
        """
        digest = self.digest(key_string)
        meta_path, npz_path = self._paths(digest)
        try:
            meta = json.loads(meta_path.read_text())
            if meta.get("key") != key_string:
                raise ValueError("digest collision or stale entry")
            if meta.get("precision", "float64") != precision:
                raise ValueError(
                    f"entry precision {meta.get('precision', 'float64')!r} "
                    f"!= requested {precision!r}"
                )
            with np.load(npz_path) as npz:
                spectrum = np.array(npz["fused_spectrum"])
            if spectrum.dtype != np.dtype(complex_dtype(precision)):
                raise ValueError(
                    f"payload dtype {spectrum.dtype} != {precision} tier "
                    f"dtype {np.dtype(complex_dtype(precision))}"
                )
            tile = tuple(int(t) for t in meta["tile"])
            local_shape = tuple(int(s) for s in meta["local_shape"])
            if spectrum.shape != local_shape:
                raise ValueError(
                    f"spectrum shape {spectrum.shape} != meta {local_shape}"
                )
            if not np.all(np.isfinite(spectrum)):
                raise ValueError("non-finite spectrum")
        except FileNotFoundError:
            self._miss()
            return None
        except (OSError, ValueError, KeyError) as e:
            self.telemetry.event("plan_cache_corrupt", digest=digest, error=str(e))
            for p in (meta_path, npz_path):
                try:
                    p.unlink(missing_ok=True)
                except OSError:
                    pass
            self._miss()
            return None
        self.hits += 1
        self.telemetry.count("plan_disk_hits")
        return {
            "tile": tile,
            "local_shape": local_shape,
            "steps": int(meta["steps"]),
            "fused_spectrum": spectrum,
            "precision": precision,
        }

    def _miss(self) -> None:
        self.misses += 1
        self.telemetry.count("plan_disk_misses")

    # ------------------------------------------------------- tuned configs
    #
    # The online tuner (:mod:`repro.tuner`) persists trial *winners* here,
    # keyed by a workload signature rather than a plan key: the signature
    # names the tuning problem (kernel digest, grid, steps, tier, machine
    # resources), the stored value names the joint configuration that won.
    # Entries use a distinct ``<digest>.tuned`` suffix so plan-entry
    # accounting (``info()['entries']``) is unaffected.

    def _config_path(self, digest: str) -> Path:
        return self.directory / f"{digest}.tuned"

    def put_config(self, key_string: str, config: dict) -> str:
        """Persist one tuned configuration atomically; returns the digest.

        ``config`` must be JSON-serialisable (the tuner stores
        :meth:`~repro.tuner.space.TunerCandidate.to_json`).  The key
        string is echoed into the record for collision detection and
        auditability, mirroring :meth:`put`.
        """
        digest = self.digest(key_string)
        record = {"key": key_string, "config": dict(config)}
        try:
            self._atomic_write(
                self._config_path(digest),
                lambda fh: fh.write(json.dumps(record, sort_keys=True).encode()),
            )
        except OSError as e:
            raise ServingError(
                f"cannot write tuned-config entry {digest}: {e}"
            ) from e
        self.telemetry.count("tuned_config_puts")
        return digest

    def get_config(self, key_string: str) -> dict | None:
        """The tuned configuration stored for ``key_string``, or ``None``.

        Like :meth:`get`, a corrupt or key-colliding entry heals as a
        miss (unlinked) instead of raising — a damaged cache must cost a
        re-tune, never an outage.
        """
        path = self._config_path(self.digest(key_string))
        try:
            record = json.loads(path.read_text())
            if record.get("key") != key_string:
                raise ValueError("digest collision or stale entry")
            config = record["config"]
            if not isinstance(config, dict):
                raise ValueError("config payload is not an object")
        except FileNotFoundError:
            self.telemetry.count("tuned_config_misses")
            return None
        except (OSError, ValueError, KeyError) as e:
            self.telemetry.event(
                "tuned_config_corrupt", path=str(path), error=str(e)
            )
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            self.telemetry.count("tuned_config_misses")
            return None
        self.telemetry.count("tuned_config_hits")
        return config

    def drop_config(self, key_string: str) -> None:
        """Remove the tuned configuration for ``key_string``, if present."""
        try:
            self._config_path(self.digest(key_string)).unlink(missing_ok=True)
        except OSError:
            pass

    # ------------------------------------------------------------- warm path

    def warm_plan(
        self,
        grid_shape,
        kernel: "StencilKernel",
        fused_steps: int = 1,
        boundary: str = "periodic",
        gpu=None,
        config=None,
        tile=None,
        backend=None,
        workers: int | None = None,
        precision: str | None = None,
    ) -> "FlashFFTStencil":
        """Construct a plan, warm-starting from disk when possible.

        On a hit the stored fused spectrum is seeded into the in-process
        spectrum cache and, for Eq.-(5) geometry, the stored tile passed
        as an explicit override, so construction skips both auto-tuning
        and the spectrum FFT.  Host-slab windows are a closed form of the
        key's geometry tag, so those rebuild with ``tile=None`` and keep
        the cold plan's GPU-model windows too.  On a miss the plan is
        built cold and its artifacts persisted for the next process.
        Either way the returned plan is numerically identical to a cold
        build (the artifacts *are* the cold products).
        """
        from ..core.kernels import spectrum_cache_seed
        from ..core.plan import FlashFFTStencil, geometry_rule
        from ..core.streamline import StreamlineConfig
        from ..gpusim.spec import A100
        from ..parallel.backends import get_backend

        if gpu is None:
            gpu = A100
        if config is None:
            config = StreamlineConfig()
        if isinstance(grid_shape, (int, np.integer)):
            grid_shape = (int(grid_shape),)
        grid_shape = tuple(int(s) for s in grid_shape)
        if tile is not None:
            tile = (
                (int(tile),) * kernel.ndim
                if isinstance(tile, (int, np.integer))
                else tuple(int(t) for t in tile)
            )
        resolved = get_backend(backend)
        prec = resolve_precision(precision)
        key = _key_string(
            grid_shape, kernel, fused_steps, boundary, gpu, config,
            tile, workers, prec,
        )
        stored = self.get(key, prec)
        if stored is not None:
            spectrum_cache_seed(
                kernel,
                stored["local_shape"],
                stored["steps"],
                stored["fused_spectrum"],
                precision=prec,
            )
            host = tile is None and geometry_rule(
                grid_shape, kernel, fused_steps, boundary
            ) != "eq5"
            return FlashFFTStencil(
                grid_shape,
                kernel,
                fused_steps=fused_steps,
                boundary=boundary,
                gpu=gpu,
                config=config,
                tile=None if host else stored["tile"],
                backend=resolved,
                workers=workers,
                precision=prec,
            )
        plan = FlashFFTStencil(
            grid_shape,
            kernel,
            fused_steps=fused_steps,
            boundary=boundary,
            gpu=gpu,
            config=config,
            tile=tile,
            backend=resolved,
            workers=workers,
            precision=prec,
        )
        self.put(key, plan.planning_artifacts())
        return plan

    # ------------------------------------------------------------ introspect

    def info(self) -> dict:
        entries = len(list(self.directory.glob("*.json")))
        tuned = len(list(self.directory.glob("*.tuned")))
        return {
            "directory": str(self.directory),
            "entries": entries,
            "tuned_entries": tuned,
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> None:
        """Remove every cache entry (counters are kept)."""
        for p in self.directory.glob("*.json"):
            p.unlink(missing_ok=True)
        for p in self.directory.glob("*.npz"):
            p.unlink(missing_ok=True)
        for p in self.directory.glob("*.tuned"):
            p.unlink(missing_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlanDiskCache({str(self.directory)!r})"

"""The paper's experiments, each defined once.

Each figure of the evaluation (Figures 3-10) and the abstract's headline
claim is one function that runs the figure's grid on the simulated
devices in virtual mode and returns the runs.  ``repro run figN``
(:mod:`repro.cli`) prints them as tables; ``benchmarks/test_figNN_*.py``
prints them beside the paper's values and asserts each figure's shape.
``device`` defaults to the device the paper measured the figure on.
"""

from __future__ import annotations

from repro.apps import conv3d as cv
from repro.apps import matmul as mm
from repro.apps import qcd as qc
from repro.apps import stencil as st
from repro.apps.common import VersionSet

__all__ = [
    "FIG4_CHUNKS", "FIG4_STREAMS", "FIG7_STREAMS", "FIG8_CONV_CHUNKS",
    "FIG8_STENCIL_CHUNKS", "MATMUL_SIZES", "PAPER_DEVICE", "QCD_DATASETS",
    "fig3", "fig4", "fig4_config", "fig5", "fig6", "fig6_config", "fig7",
    "fig8", "fig8_config", "headline", "matmul_sweep", "paper_config",
]

#: the device the paper measured each figure (and the headline) on
PAPER_DEVICE = {
    **{f"fig{n}": "k40m" for n in range(3, 11)}, "fig8": "hd7970", "headline": "k40m",
}
#: the QCD datasets, ``O(C n^4)`` lattices (Figures 3, 5 and 6)
QCD_DATASETS = ("small", "medium", "large")
#: Figure 4: QCD-large chunk sizes x stream counts
FIG4_CHUNKS = (1, 2, 4, 8)
FIG4_STREAMS = (1, 2, 3, 4, 5)
#: Figure 7: stream counts
FIG7_STREAMS = (2, 3, 4, 5, 6, 7, 8)
#: Figure 8: chunk counts per application; the last is the default chunking
FIG8_CONV_CHUNKS = (2, 3, 4, 6, 9, 12, 20, 30, 50, 382)
FIG8_STENCIL_CHUNKS = (2, 4, 6, 10, 20, 62)
#: Figures 9 and 10: matmul sizes (the two largest exceed the K40m's
#: memory for the full-footprint versions)
MATMUL_SIZES = (1024, 2048, 4096, 8192, 10240, 12288, 14336, 20480, 24576)

_CONFIGS = {
    "3dconv": cv.Conv3dConfig, "stencil": st.StencilConfig, "matmul": mm.MatmulConfig,
}


def paper_config(bench: str, **overrides):
    """The paper's dataset of ``bench`` (``3dconv``, ``stencil``,
    ``matmul`` or ``qcd-small``/``-medium``/``-large``) with ``overrides``."""
    if bench.startswith("qcd-"):
        return qc.QcdConfig.dataset(bench[len("qcd-"):], **overrides)
    return _CONFIGS[bench](**overrides)


def _qcd_sets(device: str, prefix: str):
    """The three models on each QCD dataset, keyed ``prefix + dataset``."""
    return {
        prefix + d: qc.run_all(paper_config(f"qcd-{d}"), device, virtual=True)
        for d in QCD_DATASETS
    }


def fig3(device: str = PAPER_DEVICE["fig3"]):
    """Figure 3: the three models on each QCD dataset, keyed by dataset."""
    return _qcd_sets(device, "")


def fig4_config(chunk_size: int, num_streams: int):
    """One point of Figure 4's QCD-large grid."""
    return paper_config("qcd-large", chunk_size=chunk_size, num_streams=num_streams)


def fig4(device: str = PAPER_DEVICE["fig4"]):
    """Figure 4: Pipelined-buffer QCD-large by ``(chunk_size, num_streams)``."""
    return {
        (cs, ns): qc.run_model(
            "pipelined-buffer", fig4_config(cs, ns), device, virtual=True
        )
        for cs in FIG4_CHUNKS
        for ns in FIG4_STREAMS
    }


def fig5(device: str = PAPER_DEVICE["fig5"]):
    """Figure 5: each benchmark under the three models, keyed ``3dconv``,
    ``stencil`` and ``qcdsmall``/``qcdmedium``/``qcdlarge``.

    The hand-coded Pipelined stencil runs on OpenACC's default of eight
    streams, the Pipelined-buffer one on the two the prototype picks.
    """
    sten = paper_config("stencil")
    pipe = paper_config("stencil", num_streams=8)
    buf = paper_config("stencil", num_streams=2)
    return {
        "3dconv": cv.run_all(paper_config("3dconv"), device, virtual=True),
        "stencil": VersionSet(
            "stencil", sten.dataset, str(device),
            st.run_model("naive", sten, device, virtual=True),
            st.run_model("pipelined", pipe, device, virtual=True),
            st.run_model("pipelined-buffer", buf, device, virtual=True),
        ),
        **_qcd_sets(device, "qcd"),
    }


def fig6_config(bench: str):
    """Figure 6's config of ``bench``: its paper dataset, the stencil
    over one sweep."""
    if bench == "stencil":
        return paper_config(bench, iters=1)
    return paper_config(bench)


def fig6(device: str = PAPER_DEVICE["fig6"]):
    """Figure 6: memory of the three models, keyed as :func:`fig5`."""
    return {
        "3dconv": cv.run_all(fig6_config("3dconv"), device, virtual=True),
        "stencil": st.run_all(fig6_config("stencil"), device, virtual=True),
        **_qcd_sets(device, "qcd"),
    }


def fig7(device: str = PAPER_DEVICE["fig7"]):
    """Figure 7: per app, ``(naive, {num_streams: {"pipelined": r,
    "buffer": r}})``; Naive runs once, at two streams."""
    out = {}
    for app, mod in (("3dconv", cv), ("stencil", st)):
        naive_cfg = paper_config(app, num_streams=2)
        naive = mod.run_model("naive", naive_cfg, device, virtual=True)
        rows = {}
        for ns in FIG7_STREAMS:
            cfg = paper_config(app, num_streams=ns)
            rows[ns] = {
                "pipelined": mod.run_model("pipelined", cfg, device, virtual=True),
                "buffer": mod.run_model("pipelined-buffer", cfg, device, virtual=True),
            }
        out[app] = (naive, rows)
    return out


def fig8_config(app: str, nchunks: int):
    """One point of Figure 8's chunk sweep: ``app`` (``3dconv`` or
    ``stencil``) in about ``nchunks`` chunks on two streams.  The HD
    7970's 3 GB bounds 3dconv to a 384^3 volume; the stencil runs two
    sweeps."""
    if app == "3dconv":
        return paper_config(
            "3dconv", nz=384, ny=384, nx=384,
            chunk_size=max(1, 382 // nchunks), num_streams=2,
        )
    return paper_config(
        "stencil", chunk_size=max(1, 62 // nchunks), num_streams=2, iters=2
    )


def fig8(device: str = PAPER_DEVICE["fig8"]):
    """Figure 8: ``(3dconv, stencil)`` chunk sweeps, each keyed by chunk
    count."""
    conv = {
        n: cv.run_all(fig8_config("3dconv", n), device, virtual=True)
        for n in FIG8_CONV_CHUNKS
    }
    sten = {
        n: st.run_all(fig8_config("stencil", n), device, virtual=True)
        for n in FIG8_STENCIL_CHUNKS
    }
    return conv, sten


def matmul_sweep(device: str = PAPER_DEVICE["fig9"]):
    """Figures 9 and 10: ``{n: {version: result}}`` over every matmul
    version and size (``None`` where the version does not fit)."""
    return mm.run_sweep(MATMUL_SIZES, device, virtual=True)


def headline(device: str = PAPER_DEVICE["headline"]):
    """The abstract's claim: ``(sets, matmul)``, the three models on
    3dconv, stencil and QCD-large, and the matmul versions at n=14336."""
    sets = {
        "3dconv": cv.run_all(paper_config("3dconv"), device, virtual=True),
        "stencil": st.run_all(paper_config("stencil"), device, virtual=True),
        "qcd-large": qc.run_all(paper_config("qcd-large"), device, virtual=True),
    }
    return sets, mm.run_sweep([14336], device, virtual=True)[14336]

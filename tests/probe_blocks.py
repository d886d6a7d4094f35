"""The VI probe blocks of one step, for tests that score a certificate directly."""

from contextlib import contextmanager

from curlplast.solver import ProbeDrawer


@contextmanager
def one_step_blocks(problem, probes, rng):
    """The blocks of `probes` probes of rng for DiscreteProblem.vi_residual,
    drawn by a one-step ProbeDrawer that is joined on exit."""
    with ProbeDrawer([rng], probes, problem.K_ff.shape[0] + problem.basis.size) as drawer:
        yield drawer.step()

import hypothesis
import pytest

import widthlab.interp as interp

# numpy-heavy properties can blow the default deadline on a busy machine;
# the examples budgets below are what make the suite's runtime predictable
hypothesis.settings.register_profile(
    "widthlab", deadline=None, max_examples=50,
    derandomize=True, print_blob=False,
)
hypothesis.settings.load_profile("widthlab")


@pytest.fixture(autouse=True)
def _test_sized_meshes(monkeypatch):
    """Cap finite_rank_pipeline's meshes just above the largest a test builds.

    That is the default interp mesh, 3,533,785 vertices.  A pipeline whose
    audits never pass, say on a broken smoothing step, then stops with
    MeshBudgetError after a few levels, not at the 32M-vertex default.
    """
    monkeypatch.setattr(interp, "_MAX_VERTICES", 4_000_000)

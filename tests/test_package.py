from types import ModuleType

import multifan


def test_all_lists_names_not_submodules():
    assert "CrossCheckFailed" in multifan.__all__
    assert [n for n in multifan.__all__ if isinstance(getattr(multifan, n), ModuleType)] == []
    assert isinstance(multifan.todd, ModuleType)  # the attributes themselves stay

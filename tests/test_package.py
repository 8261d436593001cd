import tailwls
from tailwls import errors


def _exception_classes(namespace: dict) -> dict:
    return {name: value for name, value in namespace.items()
            if isinstance(value, type) and issubclass(value, Exception)}


def test_public_surface():
    """Every exported name is listed once and resolves; every error is exported and typed."""
    names = tailwls.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(tailwls, name), name
    exported = _exception_classes({name: getattr(tailwls, name) for name in names})
    assert set(_exception_classes(vars(errors))) <= set(exported)
    for name, cls in exported.items():
        if cls is not tailwls.TailwlsError:
            assert issubclass(cls, tailwls.TailwlsError), name
            assert issubclass(cls, ValueError), name

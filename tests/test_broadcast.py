"""The per-worker broadcast cache (``state.broadcast.broadcast_state``):
one build per (build function, ref), one entry per build function,
plain objects never cached."""

import weakref

from gumbo_pp_ray.state import broadcast


class _State:
    def __init__(self, obj):
        self.obj = obj


def test_broadcast_state_caches_one_ref_per_build(ray_session,
                                                   monkeypatch):
    import ray

    monkeypatch.setattr(broadcast, "_state", {})
    built, alive = [], []

    def build(obj):
        # is any earlier state of this build still alive right now?
        alive.append(any(w() is not None for _, w in built))
        st = _State(obj)
        built.append((obj, weakref.ref(st)))
        return st

    def other(obj):
        return ("other", obj)

    get = broadcast.broadcast_state
    r1, r2 = ray.put("one"), ray.put("two")
    assert get(build, r1).obj == "one"
    assert get(build, r1).obj == "one"
    assert [o for o, _ in built] == ["one"]         # built once per ref

    assert get(other, r2) == ("other", "two")       # its own entry
    assert get(build, r1).obj == "one"
    assert [o for o, _ in built] == ["one"]         # not evicted

    assert get(build, r2).obj == "two"              # new ref replaces
    assert [o for o, _ in built] == ["one", "two"]
    assert alive == [False, False]                  # old state freed first
    assert set(broadcast._state) == {build, other}
    assert broadcast._state[build][0] == r2

    assert get(build, "plain").obj == "plain"       # plain: every call
    assert get(build, "plain").obj == "plain"
    assert [o for o, _ in built] == ["one", "two", "plain", "plain"]
    assert broadcast._state[build][0] == r2         # and never cached

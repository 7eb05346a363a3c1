"""Actor-pool UDFs that survive an actor restart.

Ray Data passes an actor pool's callable class to every actor as a
constructor argument.  webtext code pickles by value (webtext
``__init__``), so a class that reaches the extractor or its rule tables
pickles to ~108 KB.  That is over Ray's 100 KB limit for inlining a
task argument, so Ray passes the argument through the object store
instead.  Under Ray 2.49 that stored argument can be freed after the
actor first starts.  When a pool actor dies, Ray Data restarts it, the
restart cannot fetch its constructor argument
(``ReferenceCountingAssertionError``), and Ray Data restarts it again,
forever: the pipeline hangs instead of recovering.

``by_ref(cls)`` puts the class in the object store once, from the
driver, and returns a small stand-in class that fetches it in
``__init__``.  The stand-in's closure holds the ``ObjectRef``, and the
Dataset that maps the stand-in holds the stand-in, so the class stays
readable for as long as the pool can restart an actor.  The stand-in
pickles to ~1 KB, so it is inlined in each actor's creation task.
"""

from __future__ import annotations


def by_ref(actor_cls: type) -> type:
    """A stand-in for ``actor_cls`` to hand to ``map_batches`` as an
    actor-pool UDF.  It builds ``actor_cls(*args, **kwargs)`` on each
    actor and forwards every batch to it.  Call it on the driver."""
    import ray

    ref = ray.put(actor_cls)

    class ByRef:
        def __init__(self, *args, **kwargs):
            self._udf = ray.get(ref)(*args, **kwargs)

        def __call__(self, batch, *args, **kwargs):
            return self._udf(batch, *args, **kwargs)

    # Ray Data names the map operator after the UDF class
    ByRef.__name__ = ByRef.__qualname__ = actor_cls.__name__
    return ByRef

"""Fleet benchmark harness; run it with ``python3 -m bench`` (see ``README.md``)."""

# makes tests/ importable so test modules can `import oracles`
from hypothesis import settings

# property tests draw the same bounded examples on every run
settings.register_profile("tier1", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("tier1")

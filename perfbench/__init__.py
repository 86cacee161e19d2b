"""The tscodec benchmark; ``perfbench/run.py`` is its command."""

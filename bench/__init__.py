"""The repository benchmark; run ``python -m bench`` from the repository root."""

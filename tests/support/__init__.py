"""Test harnesses: fault injection, a threaded HTTP gateway, and
observability and ground-truth helpers."""

"""Test harnesses: fault injection and a threaded HTTP gateway."""

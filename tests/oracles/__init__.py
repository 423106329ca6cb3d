"""Reference implementations the equivalence tests compare against."""

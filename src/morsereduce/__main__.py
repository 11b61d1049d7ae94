"""``python -m morsereduce``: the ``morsereduce`` command line, without the installed script."""

from .cli import main_entry

__all__: list[str] = []

if __name__ == "__main__":
    main_entry()

import gc

from .cli import main

if __name__ == "__main__":
    gc.disable()  # what a command built lives until exit: no collection after main() either
    raise SystemExit(main())

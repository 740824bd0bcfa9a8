"""``python -m lgnsat``: the ``lgnsat`` command."""
from .cli import main
raise SystemExit(main())

"""The ``drbw`` command bodies, one module per command group.

:mod:`repro.cli` parses the arguments and imports the module of the
command that runs — and only that one — through its dispatch table, so a
command pays only for the subsystems it uses:

* :mod:`~repro.commands.train`    — ``train``;
* :mod:`~repro.commands.detect`   — ``detect`` and ``diagnose``;
* :mod:`~repro.commands.campaign` — ``campaign``;
* :mod:`~repro.commands.monitor`  — ``monitor``;
* :mod:`~repro.commands.fleet`    — ``fleet``;
* :mod:`~repro.commands.serve`    — ``serve``;
* :mod:`~repro.commands.loadgen`  — ``loadgen``;
* :mod:`~repro.commands.report`   — ``report``;
* :mod:`~repro.commands.listing`  — ``list``;
* :mod:`~repro.commands.common`   — the helpers several commands share
  (benchmark lookup, profiler configuration, model load-or-train).

Each command function takes the parsed :class:`argparse.Namespace` and
returns the exit status.
"""

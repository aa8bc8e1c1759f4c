"""The softcore's cycle charges and register file: one design point.

The paper builds one softcore (§4.3, §4.5, §4.7), so these are
constants, not options.  The generated code
(:mod:`repro.softcore.compiled`), :class:`~repro.softcore.core.Softcore`,
the static verifier's register budget and the WCET pass
(:mod:`repro.analysis.wcet`) all read them from here.
"""

#: a CPU instruction's five one-cycle RISC steps (§4.3)
CPU_INST_CYCLES = 5.0
#: a DB instruction's Prepare step: index type, timestamp, destination
DB_PREPARE_CYCLES = 1.0
#: ... and its Dispatch step, the asynchronous hand-off
DB_DISPATCH_CYCLES = 1.0
#: RET/RETN collecting a CP register
RET_CYCLES = 5.0
#: saving one transaction's context and switching to the next (§4.5)
CONTEXT_SWITCH_CYCLES = 10.0
#: the commit and abort protocols, per write-set or UNDO entry (§4.7)
COMMIT_CYCLES_PER_ENTRY = 2.0
#: WRFIELD's UNDO backup and in-place write, on top of its CPU steps
WRFIELD_CYCLES = 6.0
#: the catalogue lookup at admission (§4.2)
CATALOGUE_CYCLES = 2.0
#: GP registers, and as many CP registers, per softcore
N_REGISTERS = 256

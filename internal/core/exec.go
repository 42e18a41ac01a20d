package core

// Exec names a workload execution mode. Workloads have a single execution
// mode, continuation-form Tasks; Exec and ExecTask are kept only so the
// benchmark driver in perfbench/ (a separate module pinned to this API)
// keeps building through apps.RunExec. Nothing else uses them.
type Exec int

// ExecTask is the one execution mode: workload threads run as core.Tasks.
const ExecTask Exec = 0

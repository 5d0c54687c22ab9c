package plan

import "anydb/internal/core"

// JoinNotify returns where each join of the plan reports its EvOpDone
// instrumentation.
func (p *GenericPlan) JoinNotify() []core.ACID {
	out := make([]core.ACID, len(p.joins))
	for i, js := range p.joins {
		out[i] = js.Notify
	}
	return out
}

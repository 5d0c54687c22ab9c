package anydb

import "anydb/internal/storage"

// Test-only exports: hooks the black-box test package (anydb_test)
// needs to inject faults that have no public-API surface.

// AbortMemberConns severs every member connection without marking the
// peers dead — a network drop, not a process death. The serve loops
// notice, fail in-flight work, and wait for the members to redial.
func (c *Cluster) AbortMemberConns() {
	for _, m := range c.peers {
		m.peer.Abort()
	}
}

// PlanCacheCap is the number of templates a cluster's plan cache keeps.
const PlanCacheCap = planCacheCap

// Database returns the cluster's storage, for oracles that read the row
// heaps directly.
func (c *Cluster) Database() *storage.Database { return c.db }

// PlanCompiles reports how many statements the cluster's plan cache has
// compiled, and PlanCacheLen how many templates it keeps.
func (c *Cluster) PlanCompiles() int64 { return c.plans.compiles.Load() }

func (c *Cluster) PlanCacheLen() int {
	c.plans.mu.Lock()
	defer c.plans.mu.Unlock()
	return len(c.plans.byText)
}

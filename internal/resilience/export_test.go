package resilience

// Stats returns a snapshot of the guard's intervention counters, which
// only the guard tests read.
func (g *Guard) Stats() guardStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

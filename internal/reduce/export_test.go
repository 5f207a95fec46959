package reduce

import "repro/internal/ir"

// PooledNodes returns every node pointer left in c's steps and work
// stack, over their whole capacity.
func PooledNodes(c *Cover) []*ir.Node {
	var ns []*ir.Node
	for _, s := range c.Steps[:cap(c.Steps)] {
		if s.Node != nil {
			ns = append(ns, s.Node)
		}
	}
	for _, fr := range c.stack[:cap(c.stack)] {
		if fr.n != nil {
			ns = append(ns, fr.n)
		}
	}
	return ns
}

package cluster

import "vmalloc/internal/obs"

// ReferenceSample is referenceSample under the cluster lock, for the
// package's external tests.
func (c *Cluster) ReferenceSample() obs.EnergySample {
	c.mu.Lock()
	defer c.mu.Unlock()
	return referenceSample(c)
}

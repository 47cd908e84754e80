package serve

import "flor.dev/flor/internal/replay"

// ParkOf returns the park the open store entry of runID keeps for probe, nil
// when the run's store is not open.
func ParkOf(s *Server, runID, probe string) *replay.Park {
	s.stores.mu.Lock()
	el, ok := s.stores.entries[runID]
	s.stores.mu.Unlock()
	if !ok {
		return nil
	}
	return el.Value.(*cacheEntry).park(probe)
}

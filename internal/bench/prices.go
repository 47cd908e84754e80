package bench

import "fmt"

// machine is an EC2 instance type of the paper's cost accounting (§6,
// Figures 13 and 14) at its 2020 us-west-2 on-demand price.
type machine struct {
	gpus      int
	pricePerH float64 // $/hour
}

var (
	p32xLarge = machine{gpus: 1, pricePerH: 3.06}  // P3.2xLarge: 1 V100
	p38xLarge = machine{gpus: 4, pricePerH: 12.24} // P3.8xLarge: 4 V100s
)

// cost returns the dollar cost of running m for ns nanoseconds (per-second
// billing, so partial hours are pro-rata).
func (m machine) cost(ns int64) float64 { return m.pricePerH * float64(ns) / 3.6e12 }

// storageCostPerMonth returns the monthly cost of storing bytes at the
// standard-tier S3 price Table 4 uses, $0.023 per GB.
func storageCostPerMonth(bytes int64) float64 { return float64(bytes) / (1 << 30) * 0.023 }

// replayCost prices a replay by workers workers on a pool of identical
// machines: ⌈workers / GPUs-per-machine⌉ machines, each billed for the
// makespan.
func replayCost(workers int, makespanNs int64, m machine) (machines int, dollars float64) {
	machines = (workers + m.gpus - 1) / m.gpus
	return machines, float64(machines) * m.cost(makespanNs)
}

// formatDollars renders a dollar amount the way the paper's tables do.
func formatDollars(d float64) string {
	if d < 0.005 && d > 0 {
		return fmt.Sprintf("$ %.3f", d)
	}
	return fmt.Sprintf("$ %.2f", d)
}

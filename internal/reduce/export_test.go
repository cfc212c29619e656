package reduce

import (
	"pathflow/internal/cfg"
	"pathflow/internal/trace"
)

// Quotient exposes steps 3 and 4 so the reference test can finish a
// partition it computed itself.
func Quotient(h *trace.HPG, weights []int64, hotList []cfg.NodeID, class []int, numClasses int) (*Reduced, error) {
	return quotient(h, weights, hotList, class, numClasses)
}

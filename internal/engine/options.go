package engine

import (
	"fmt"
	"math"
	"strings"

	"pathflow/internal/dataflow"
)

// ClientSet selects which additional data-flow clients the pipeline
// runs beyond constant propagation (which always runs — it is the
// pipeline's backbone). It is a bit set: combine with |.
type ClientSet uint8

const (
	// ClientLiveness runs backward live-variable analysis (guided by
	// the tier's constant-propagation solution) on each analyzed graph.
	ClientLiveness ClientSet = 1 << iota
	// ClientAvailExpr runs forward available-expressions analysis on
	// each analyzed graph.
	ClientAvailExpr
)

// ClientsAll enables every optional client.
const ClientsAll = ClientLiveness | ClientAvailExpr

// Has reports whether every client in c is enabled.
func (cs ClientSet) Has(c ClientSet) bool { return cs&c == c }

// String renders the set as a comma-separated list ("none" when empty).
func (cs ClientSet) String() string {
	var parts []string
	if cs.Has(ClientLiveness) {
		parts = append(parts, "liveness")
	}
	if cs.Has(ClientAvailExpr) {
		parts = append(parts, "availexpr")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// UnknownClientError reports an unrecognized client name passed to
// ParseClients.
type UnknownClientError struct {
	Name string
}

func (e *UnknownClientError) Error() string {
	return fmt.Sprintf("engine: unknown analysis client %q", e.Name)
}

// Hint returns the remediation line the CLI and serving layer surface.
func (e *UnknownClientError) Hint() string {
	return "valid clients: none, liveness, availexpr, all (comma-separated)"
}

// ParseClients parses a comma-separated client list: "none" (or the
// empty string), "liveness", "availexpr", or "all".
func ParseClients(s string) (ClientSet, error) {
	var cs ClientSet
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "", "none":
		case "liveness":
			cs |= ClientLiveness
		case "availexpr":
			cs |= ClientAvailExpr
		case "all":
			cs |= ClientsAll
		default:
			return 0, &UnknownClientError{Name: strings.TrimSpace(part)}
		}
	}
	return cs, nil
}

// Options configures the pipeline.
type Options struct {
	// CA is the hot-path coverage: the minimal set of paths covering
	// this fraction of the training run's dynamic instructions is
	// isolated. CA = 0 disables qualification entirely (the paper's
	// Wegman-Zadek baseline).
	CA float64
	// CR is the reduction benefit cutoff: reduction preserves at least
	// this fraction of the dynamic non-local constants the qualified
	// analysis discovered.
	CR float64
	// Clients selects additional data-flow clients (liveness,
	// available expressions) to run on every analyzed graph tier (CFG,
	// HPG, reduced HPG). Zero runs none.
	Clients ClientSet
	// Verify enables the precision differential oracle as a final
	// pipeline stage: every derived-graph solution (constant
	// propagation, intervals, liveness, available expressions) is
	// statically checked to be pointwise at least as precise as the
	// CFG solution once projected through the vertex correspondence.
	// Any violation fails the pipeline with a StageError for the
	// "check" stage.
	Verify bool
	// Feasible enables feasible-path qualification, the second precision
	// axis: a branch-correlation static analysis (internal/feasible)
	// computes a sound infeasible-edge set per graph tier, and every
	// client analysis solves through the pruned view. Orthogonal to the
	// frequency axis (CA/CR): it refines the CFG tier even at CA = 0,
	// and on the HPG it prunes residual cold legs that duplication
	// exposed but frequency alone cannot remove.
	Feasible bool
	// Kernel selects the data-flow solver backend for every client
	// analysis the pipeline runs (constant propagation on all tiers,
	// liveness, available expressions). The zero value is
	// dataflow.KernelPacked — the allocation-free arena kernels;
	// dataflow.KernelBoxed is the test reference for differential
	// checks, not a production choice. Both backends produce
	// pointwise identical facts, so the choice never enters cache keys.
	Kernel dataflow.Kernel
}

// DefaultOptions returns the configuration the paper recommends after its
// sweeps: CA = 0.97, CR = 0.95.
func DefaultOptions() Options { return Options{CA: 0.97, CR: 0.95} }

// InvalidOptionsError reports an Options field outside its domain. Both
// knobs are fractions: the paper sweeps CA and CR over [0, 1].
type InvalidOptionsError struct {
	Field string  // "CA" or "CR"
	Value float64 // the offending value
}

func (e *InvalidOptionsError) Error() string {
	if math.IsNaN(e.Value) {
		return fmt.Sprintf("engine: invalid options: %s is NaN (want a fraction in [0, 1])", e.Field)
	}
	return fmt.Sprintf("engine: invalid options: %s = %g (want a fraction in [0, 1])", e.Field, e.Value)
}

// Hint returns the remediation line shown to users when the error is
// surfaced — the CLI prints it after the error, and the serving layer
// embeds it in structured 400 bodies, so the wording lives in exactly
// one place.
func (e *InvalidOptionsError) Hint() string {
	f := strings.ToLower(e.Field)
	return fmt.Sprintf("pass -%s a fraction between 0 and 1 (e.g. -%s %.2f)", f, f, 0.95)
}

// Validate checks that both knobs are real fractions in [0, 1] and the
// kernel selector names a known backend. It returns a
// *InvalidOptionsError naming the first offending field.
func (o Options) Validate() error {
	if math.IsNaN(o.CA) || o.CA < 0 || o.CA > 1 {
		return &InvalidOptionsError{Field: "CA", Value: o.CA}
	}
	if math.IsNaN(o.CR) || o.CR < 0 || o.CR > 1 {
		return &InvalidOptionsError{Field: "CR", Value: o.CR}
	}
	if o.Kernel > dataflow.KernelBoxed {
		return &UnknownKernelError{Name: fmt.Sprintf("%d", o.Kernel)}
	}
	return nil
}

// UnknownKernelError reports an unrecognized kernel backend name passed
// to ParseKernel (or an out-of-range Options.Kernel).
type UnknownKernelError struct {
	Name string
}

func (e *UnknownKernelError) Error() string {
	return fmt.Sprintf("engine: unknown dataflow kernel %q", e.Name)
}

// Hint returns the remediation line the CLI and serving layer surface —
// both quote it verbatim, so the list of valid kernels lives in exactly
// this one place.
func (e *UnknownKernelError) Hint() string {
	return "valid kernels: packed (default), boxed"
}

// ParseKernel parses a solver-backend name: "packed" (or the empty
// string) for the arena kernels, "boxed" for the reference path.
func ParseKernel(s string) (dataflow.Kernel, error) {
	switch strings.TrimSpace(s) {
	case "", "packed":
		return dataflow.KernelPacked, nil
	case "boxed":
		return dataflow.KernelBoxed, nil
	default:
		return 0, &UnknownKernelError{Name: strings.TrimSpace(s)}
	}
}

package engine_test

import (
	"errors"
	"strings"
	"testing"

	"pathflow/internal/dataflow"
	"pathflow/internal/engine"
)

// --- Satellite: kernel selector over every enum value --------------------

// TestKernelOptionsEveryEnumValue pins the kernel plumbing for each
// backend the solver knows: the name round-trips through ParseKernel,
// Options.Validate accepts it, and the one shared remediation hint —
// quoted verbatim by both the CLI and the serve layer's 400 bodies —
// names it. The first out-of-range value must be rejected with that
// same hint, so adding a backend without updating the hint fails here.
func TestKernelOptionsEveryEnumValue(t *testing.T) {
	kernels := []dataflow.Kernel{dataflow.KernelPacked, dataflow.KernelBoxed}
	hint := (&engine.UnknownKernelError{Name: "x"}).Hint()
	for _, k := range kernels {
		name := k.String()
		got, err := engine.ParseKernel(name)
		if err != nil {
			t.Errorf("ParseKernel(%q) = %v, want %v", name, err, k)
			continue
		}
		if got != k {
			t.Errorf("ParseKernel(%q) = %v, want %v", name, got, k)
		}
		if err := (engine.Options{CA: 0.97, CR: 0.95, Kernel: k}).Validate(); err != nil {
			t.Errorf("Validate with kernel %q = %v, want nil", name, err)
		}
		if !strings.Contains(hint, name) {
			t.Errorf("hint %q does not name kernel %q", hint, name)
		}
	}
	// The default spelling: empty string parses to the packed kernels.
	if got, err := engine.ParseKernel(""); err != nil || got != dataflow.KernelPacked {
		t.Errorf("ParseKernel(\"\") = %v, %v; want KernelPacked, nil", got, err)
	}

	// One past the last valid enum value must fail Validate, and a bogus
	// name must fail ParseKernel — both with the shared hint.
	bad := engine.Options{CA: 0.97, CR: 0.95, Kernel: dataflow.KernelBoxed + 1}
	var uk *engine.UnknownKernelError
	if err := bad.Validate(); !errors.As(err, &uk) {
		t.Errorf("Validate with out-of-range kernel = %v, want *UnknownKernelError", err)
	} else if uk.Hint() != hint {
		t.Errorf("out-of-range hint %q differs from shared hint %q", uk.Hint(), hint)
	}
	if _, err := engine.ParseKernel("bogus"); !errors.As(err, &uk) {
		t.Errorf("ParseKernel(\"bogus\") = %v, want *UnknownKernelError", err)
	} else if uk.Hint() != hint {
		t.Errorf("parse hint %q differs from shared hint %q", uk.Hint(), hint)
	}
}

package clc

import (
	"strings"
	"testing"
)

// foldKernel parses, checks and folds a single-kernel source, returning the
// printed result.
func foldKernel(t *testing.T, src string) string {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
	Fold(prog.Kernels[0])
	return PrintKernel(prog.Kernels[0])
}

func wantContains(t *testing.T, out string, frags ...string) {
	t.Helper()
	for _, f := range frags {
		if !strings.Contains(out, f) {
			t.Fatalf("folded output missing %q:\n%s", f, out)
		}
	}
}

func wantNotContains(t *testing.T, out string, frags ...string) {
	t.Helper()
	for _, f := range frags {
		if strings.Contains(out, f) {
			t.Fatalf("folded output still contains %q:\n%s", f, out)
		}
	}
}

func TestFoldIntConstants(t *testing.T) {
	out := foldKernel(t, `__kernel void f(__global int* a) {
        a[0] = 2 + 3 * 4;
        a[1] = (20 / 4) % 3;
        a[2] = -(5 - 9);
    }`)
	wantContains(t, out, "a[0] = 14;", "a[1] = 2;", "a[2] = 4;")
}

func TestFoldFloatConstantsUseFloat32Semantics(t *testing.T) {
	// 16777216 + 1 is not representable in float32: must fold to 16777216.
	out := foldKernel(t, `__kernel void f(__global float* a) {
        a[0] = 16777216.0f + 1.0f;
    }`)
	wantContains(t, out, "a[0] = 1.6777216e+07f;") // 16777216, not ...217
}

func TestFoldIdentities(t *testing.T) {
	out := foldKernel(t, `__kernel void f(__global int* a, int x, __global float* b, float y) {
        a[0] = x + 0;
        a[1] = 0 + x;
        a[2] = x * 1;
        a[3] = x - 0;
        a[4] = x / 1;
        b[0] = y * 1.0f;
        b[1] = 1.0f * y;
        b[2] = y / 1.0f;
    }`)
	wantContains(t, out, "a[0] = x;", "a[1] = x;", "a[2] = x;", "a[3] = x;", "a[4] = x;",
		"b[0] = y;", "b[1] = y;", "b[2] = y;")
	wantNotContains(t, out, "* 1", "+ 0", "- 0", "/ 1")
}

func TestFoldMulByZeroOnlyWhenSafe(t *testing.T) {
	out := foldKernel(t, `__kernel void f(__global int* a, int x, int d) {
        a[0] = x * 0;
        a[1] = (x / d) * 0;
    }`)
	wantContains(t, out, "a[0] = 0;")
	// x/d can trap on d == 0: the multiplication must NOT be folded away.
	wantContains(t, out, "(x / d)")
}

func TestFoldFloatAddZeroNotFolded(t *testing.T) {
	// -0.0f + 0.0f == +0.0f, so x + 0.0f is not an identity.
	out := foldKernel(t, `__kernel void f(__global float* a, float y) {
        a[0] = y + 0.0f;
    }`)
	wantContains(t, out, "(y + 0.0f)")
}

func TestFoldDeadBranches(t *testing.T) {
	out := foldKernel(t, `__kernel void f(__global int* a, int x) {
        if (1 < 2) { a[0] = 1; } else { a[0] = 2; }
        if (false) { a[1] = 3; }
        if (2 == 3) { a[2] = 4; } else { a[2] = 5; }
    }`)
	wantContains(t, out, "a[0] = 1;", "a[2] = 5;")
	wantNotContains(t, out, "a[0] = 2;", "a[1] = 3;", "a[2] = 4;", "if")
}

func TestFoldDeadLoops(t *testing.T) {
	out := foldKernel(t, `__kernel void f(__global int* a, int x) {
        for (int i = 0; false; i++) { a[0] = 9; }
        while (0) { a[1] = 9; }
        x = 0;
        for (x = 7; 1 > 2; ) { a[2] = 9; }
    }`)
	wantNotContains(t, out, "a[0]", "a[1]", "a[2]", "for", "while", "int i")
	// The assignment init of the third loop survives.
	wantContains(t, out, "x = 7;")
}

func TestFoldShortCircuit(t *testing.T) {
	out := foldKernel(t, `__kernel void f(__global int* a, int x) {
        if (false && x / 0 > 1) { a[0] = 1; }
        if (true || x / 0 > 1) { a[1] = 2; }
        if (true && x > 1) { a[2] = 3; }
    }`)
	// Both constant-deciding sides fold; the trap-capable right sides vanish
	// without being evaluated.
	wantNotContains(t, out, "a[0]", "/ 0", "||", "&&")
	wantContains(t, out, "a[1] = 2;")
	wantContains(t, out, "if ((x > 1))")
}

func TestFoldTernary(t *testing.T) {
	out := foldKernel(t, `__kernel void f(__global int* a, int x) {
        a[0] = (3 > 2) ? x : -x;
        a[1] = (3 < 2) ? x : -x;
    }`)
	wantContains(t, out, "a[0] = x;", "a[1] = (-x);")
	wantNotContains(t, out, "?")
}

func TestFoldBuiltins(t *testing.T) {
	out := foldKernel(t, `__kernel void f(__global float* a, __global int* b) {
        a[0] = sqrt(4.0f);
        a[1] = fabs(-3.0f);
        a[2] = floor(2.9f);
        b[0] = abs(-7);
        b[1] = min(3, 5);
        b[2] = max(3, 5);
    }`)
	wantContains(t, out, "a[0] = 2.0f;", "a[1] = 3.0f;", "a[2] = 2.0f;",
		"b[0] = 7;", "b[1] = 3;", "b[2] = 5;")
}

func TestFoldCasts(t *testing.T) {
	out := foldKernel(t, `__kernel void f(__global float* a, __global int* b) {
        a[0] = (float)3;
        b[0] = (int)2.9f;
        b[1] = (int)(-2.9f);
        b[2] = (int)1e30f;
    }`)
	wantContains(t, out, "a[0] = 3.0f;", "b[0] = 2;", "b[1] = -2;", "b[2] = 9223372036854775807;")
}

func TestFoldPreservesNonConstants(t *testing.T) {
	src := `__kernel void f(__global float* a, int n) {
        int i = get_global_id(0);
        if (i < n) {
            a[i] = a[i] * 2.0f + 1.0f;
        }
    }`
	out := foldKernel(t, src)
	wantContains(t, out, "get_global_id(0)", "if ((i < n))", "* 2.0f")
}

func TestFoldedProgramStillChecks(t *testing.T) {
	src := `__kernel void f(__global int* a, int x) {
        for (int i = 0; false; i++) { a[0] = 9; }
        int i = 5;   // must not collide with the dead loop's counter
        a[1] = i + 2 * 3;
    }`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
	Fold(prog.Kernels[0])
	printed := Print(prog)
	prog2, err := Parse(printed)
	if err != nil {
		t.Fatalf("folded output does not parse: %v\n%s", err, printed)
	}
	if _, err := Check(prog2); err != nil {
		t.Fatalf("folded output does not check: %v\n%s", err, printed)
	}
}

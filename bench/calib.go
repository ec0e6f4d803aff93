package bench

import "time"

// The calibration loop measures how fast the machine is right now, so that a
// timing taken next to it can be reported in the seconds of a machine of
// fixed speed. It is allocation-free, owned by the benchmark and never
// changes: a change to it changes the unit of every timing metric.
//
// What slows this sandbox down is mostly other tenants on the same cores, and
// that hurts code in proportion to how many instructions per cycle it
// retires: during one 7-minute sample the workloads' iteration times moved
// by 32 % while a pure dependent-load chain moved by 16 % and a small
// switch-dispatch interpreter by 45 %. Neither tracks the program alone; the
// sum of the two does (log-log slope 1.0-1.1 against coop-pair and
// paper-quick iterations, 0.7 against stream-chunks). So the loop has two
// phases of about equal length:
//
//  1. a serial xorshift64 chain steering an 8-way switch — latency-bound,
//     mispredicting, like the program's dispatch and scheduling code;
//  2. a switch-dispatch bytecode interpreter running a fixed multiply-add
//     loop over a 1 MiB float32 array — high instruction-level parallelism
//     with L2-resident loads and stores, like the VM engines.
const (
	calibChainSteps  = 2_000_000
	calibInterpIters = 1_200_000
	calibWords       = 256 << 10
	// CalibRefS is the loop time of the reference machine: corrected
	// timings are seconds on a machine where Calibrate takes exactly this.
	CalibRefS = 0.045
)

type calibInstr struct {
	op      uint8
	a, b, c int32
}

// calibProg is the fixed program of phase 2: two strided loads, two
// multiply-adds, a store and the loop test per iteration.
var calibProg = [...]calibInstr{
	{op: 1, a: 2, b: 0},         // f2 = mem[i0 & mask]
	{op: 2, a: 3, b: 2, c: 4},   // f3 = f2 * f4
	{op: 3, a: 5, b: 5, c: 3},   // f5 = f5 + f3
	{op: 4, a: 6, b: 0, c: 7},   // i6 = i0 + i7
	{op: 1, a: 8, b: 6},         // f8 = mem[i6 & mask]
	{op: 2, a: 9, b: 8, c: 4},   // f9 = f8 * f4
	{op: 3, a: 5, b: 5, c: 9},   // f5 = f5 + f9
	{op: 5, b: 6},               // mem[i6 & mask] = f5 * 1e-9
	{op: 6, a: 0},               // i0++
	{op: 7, a: 0, b: 1, c: -10}, // if i0 < i1 goto start
	{op: 0},                     // halt
}

var (
	calibMem  [calibWords]float32
	calibSink uint64
)

// Calibrate runs the fixed loop once and returns how long it took.
func Calibrate() time.Duration {
	t0 := time.Now()
	calibSink = calibChain() + uint64(calibInterp())
	return time.Since(t0)
}

func calibChain() uint64 {
	x := uint64(88172645463325252)
	acc := uint64(0)
	for i := 0; i < calibChainSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch x & 7 {
		case 0:
			acc += x
		case 1:
			acc ^= x >> 3
		case 2:
			acc -= x
		case 3:
			acc += acc >> 1
		case 4:
			acc *= 3
		case 5:
			acc ^= acc << 5
		case 6:
			acc += 7
		default:
			acc--
		}
	}
	return acc
}

func calibInterp() float32 {
	var ir [16]int64
	var fr [16]float32
	ir[1] = calibInterpIters
	ir[7] = 977
	fr[4], fr[5] = 0.5, 1
	const mask = calibWords - 1
	pc := 0
	for {
		in := &calibProg[pc]
		switch in.op {
		case 0:
			return fr[5]
		case 1:
			fr[in.a] = calibMem[ir[in.b]&mask]
		case 2:
			fr[in.a] = fr[in.b] * fr[in.c]
		case 3:
			fr[in.a] = fr[in.b] + fr[in.c]
		case 4:
			ir[in.a] = ir[in.b] + ir[in.c]
		case 5:
			calibMem[ir[in.b]&mask] = fr[5] * 1e-9 // stored values stay near 1e-9: normal numbers
		case 6:
			ir[in.a]++
		case 7:
			if ir[in.a] < ir[in.b] {
				pc += int(in.c)
			}
		}
		pc++
	}
}

// Correct reports raw seconds measured between two calibration loops as
// seconds on the reference machine.
func Correct(raw, calibBefore, calibAfter float64) float64 {
	return raw * CalibRefS / ((calibBefore + calibAfter) / 2)
}

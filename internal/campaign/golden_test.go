package campaign

import (
	"context"
	"math"
	"strconv"
	"testing"

	"radcrit/internal/arch"
	"radcrit/internal/injector"
	"radcrit/internal/k40"
	"radcrit/internal/kernels"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/kernels/lavamd"
	"radcrit/internal/phi"
)

// goldenCell is one frozen experiment cell outcome: seed 42, 300 strikes,
// TestScale smallest sweep size per kernel family. FIT values are pinned
// as hex floats for bit-exact comparison.
//
// This table is the engine's regression anchor: any refactor that
// silently changes campaign outcomes — RNG derivation, strike resolution,
// injection semantics, merge order, exposure back-computation — fails
// tier-1 here. If a change is *supposed* to alter outcomes, regenerate
// the table (run each cell and print Tally, SDCFIT(0), SDCFIT(1) and
// LocalityBreakdown(0).Values with strconv.FormatFloat(v, 'x', -1, 64))
// and say so loudly in the commit.
type goldenCell struct {
	device, kernel, input    string
	masked, sdc, crash, hang int
	sdcFIT0, sdcFIT1         string
	locality                 [5]string // cubic, square, line, single, random
}

const (
	goldenSeed    = 42
	goldenStrikes = 300
)

var goldenTable = []goldenCell{
	{
		device: "K40", kernel: "DGEMM", input: "128x128",
		masked: 152, sdc: 112, crash: 29, hang: 7,
		sdcFIT0: "0x1.cd5b57ed5d03fp+00", sdcFIT1: "0x1.4da8eb04ceb2ep+00",
		locality: [5]string{"0x0p+00", "0x1.93afecefb1637p-01", "0x1.fec9b3a239446p-02", "0x1.07a1e919ec025p-01", "0x0p+00"},
	},
	{
		device: "K40", kernel: "LavaMD", input: "grid 4",
		masked: 223, sdc: 42, crash: 30, hang: 5,
		sdcFIT0: "0x1.c66d50e1a0ce7p+00", sdcFIT1: "0x1.f1b4adeaed12dp-01",
		locality: [5]string{"0x1.b0c9a25cfaac2p-03", "0x1.5a3ae84a62236p-05", "0x1.5a3ae84a62236p-02", "0x1.2ef38b4115defp+00", "0x0p+00"},
	},
	{
		device: "K40", kernel: "HotSpot", input: "64x64",
		masked: 217, sdc: 70, crash: 9, hang: 4,
		sdcFIT0: "0x1.2419cf61787a9p+00", sdcFIT1: "0x1.d35c7f025a5dbp-04",
		locality: [5]string{"0x0p+00", "0x1.1fed8e3f29f52p+00", "0x0p+00", "0x1.0b104893a15a1p-06", "0x0p+00"},
	},
	{
		device: "K40", kernel: "CLAMR", input: "48x48",
		masked: 206, sdc: 67, crash: 21, hang: 6,
		sdcFIT0: "0x1.57c7412483f13p+00", sdcFIT1: "0x1.a4be5f02a91f9p-01",
		locality: [5]string{"0x0p+00", "0x1.57c7412483f13p+00", "0x0p+00", "0x0p+00", "0x0p+00"},
	},
	{
		device: "XeonPhi", kernel: "DGEMM", input: "128x128",
		masked: 118, sdc: 154, crash: 21, hang: 7,
		sdcFIT0: "0x1.d1af7c1258809p-01", sdcFIT1: "0x1.ad65f76408768p-01",
		locality: [5]string{"0x0p+00", "0x1.316ac765cc545p-01", "0x1.e3d43e6980859p-03", "0x1.3a7d28916056dp-04", "0x0p+00"},
	},
	{
		device: "XeonPhi", kernel: "LavaMD", input: "grid 3",
		masked: 97, sdc: 96, crash: 93, hang: 14,
		sdcFIT0: "0x1.5c54961aecc7cp-01", sdcFIT1: "0x1.fbfb5ae743f8cp-02",
		locality: [5]string{"0x1.30ca03578f2edp-02", "0x1.ed77d4a624c5ap-04", "0x1.5c54961aecc7cp-03", "0x1.795ba29d2b2ddp-04", "0x0p+00"},
	},
	{
		device: "XeonPhi", kernel: "HotSpot", input: "64x64",
		masked: 131, sdc: 122, crash: 38, hang: 9,
		sdcFIT0: "0x1.6b99d21552bf5p-01", sdcFIT1: "0x1.65a3e39f77294p-04",
		locality: [5]string{"0x0p+00", "0x1.6b99d21552bf5p-01", "0x0p+00", "0x0p+00", "0x0p+00"},
	},
	{
		device: "XeonPhi", kernel: "CLAMR", input: "48x48",
		masked: 111, sdc: 131, crash: 49, hang: 9,
		sdcFIT0: "0x1.7d9f3bc79e008p-01", sdcFIT1: "0x1.31e156ffc115ep-01",
		locality: [5]string{"0x0p+00", "0x1.7d9f3bc79e008p-01", "0x0p+00", "0x0p+00", "0x0p+00"},
	},
}

// goldenKernels returns the table's kernel set for a device, in table
// order: smallest DGEMM and LavaMD sweep sizes, HotSpot, CLAMR.
func goldenKernels(dev arch.Device) []kernels.Kernel {
	return []kernels.Kernel{
		dgemm.New(DGEMMSizes(TestScale, dev)[0]),
		lavamd.New(LavaMDSizes(TestScale, dev)[0]),
		HotSpotKernel(TestScale),
		CLAMRKernel(TestScale),
	}
}

func mustHex(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("golden table holds unparseable float %q: %v", s, err)
	}
	return v
}

func requireGoldenFloat(t *testing.T, label string, got float64, want string) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(mustHex(t, want)) {
		t.Errorf("%s: got %s, table pins %s",
			label, strconv.FormatFloat(got, 'x', -1, 64), want)
	}
}

// TestGoldenValues pins the exact campaign outcomes of seed 42 / 300
// strikes across all four kernels on both devices, two ways: the frozen
// oracle's Result methods and the streaming reducer stack must each
// reproduce the frozen table bit for bit.
func TestGoldenValues(t *testing.T) {
	cfg := DefaultConfig(goldenSeed, goldenStrikes)
	i := 0
	for _, dev := range []arch.Device{k40.New(), phi.New()} {
		for _, kern := range goldenKernels(dev) {
			want := goldenTable[i]
			i++
			label := want.device + "/" + want.kernel + "/" + want.input

			res := runOracle(dev, kern, cfg)
			if res.Device != want.device || res.Kernel != want.kernel || res.Input != want.input {
				t.Fatalf("%s: cell resolved to %s/%s/%s — table and sweep presets diverged",
					label, res.Device, res.Kernel, res.Input)
			}
			wantTally := injector.Tally{Masked: want.masked, SDC: want.sdc, Crash: want.crash, Hang: want.hang}
			if res.Tally != wantTally {
				t.Errorf("%s: tally %+v, table pins %+v", label, res.Tally, wantTally)
			}
			requireGoldenFloat(t, label+": SDCFIT(0)", res.SDCFIT(0), want.sdcFIT0)
			requireGoldenFloat(t, label+": SDCFIT(1)", res.SDCFIT(1), want.sdcFIT1)
			bd := res.LocalityBreakdown(0)
			for k, hex := range want.locality {
				requireGoldenFloat(t, label+": locality["+bd.Labels[k]+"]", bd.Values[k], hex)
			}

			// The streaming engine must land on the same frozen values.
			acc := NewSummaryAccumulator([]float64{0, 1})
			info, err := RunStreamingCtx(context.Background(), dev, kern, cfg, acc)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sum := acc.Summary(info)
			if sum.Tally != wantTally {
				t.Errorf("%s: streaming tally %+v, table pins %+v", label, sum.Tally, wantTally)
			}
			requireGoldenFloat(t, label+": streaming SDCFIT(0)", sum.SDCFIT[0], want.sdcFIT0)
			requireGoldenFloat(t, label+": streaming SDCFIT(1)", sum.SDCFIT[1], want.sdcFIT1)
			sbd := sum.Locality[0]
			for k, hex := range want.locality {
				requireGoldenFloat(t, label+": streaming locality["+sbd.Labels[k]+"]", sbd.Values[k], hex)
			}
		}
	}
	if i != len(goldenTable) {
		t.Fatalf("walked %d cells, table has %d", i, len(goldenTable))
	}
}

package wireless

import (
	"fmt"
	"testing"

	"wisync/internal/sim"
	"wisync/internal/simtest"
)

// commitTrace runs a fixed contended scenario — 16 nodes, 4 messages each,
// seeded random inter-send sleeps, one mid-flight cancellation — and
// returns the full commit trace as "src.msg@cycle" entries. The scenario
// covers every arbitration path: idle-slot wins, busy deferral, collisions
// with backoff retries, and a withdrawal while queued.
func commitTrace(p Params, seed uint64) []string {
	eng := sim.NewEngine(seed)
	n := New(eng, 16, p)
	var trace []string
	n.Subscribe(func(m Msg, at sim.Time) {
		trace = append(trace, fmt.Sprintf("%d.%d@%d", m.Src, m.Val, at))
	})
	var tok Token
	for c := 0; c < 16; c++ {
		simtest.Seq(eng, fmt.Sprintf("n%d", c), simtest.Repeat(4, func(i int) simtest.Op {
			t := &Token{}
			if c == 3 && i == 2 {
				t = &tok
			}
			return simtest.Chain(send(n, Msg{Src: c, Val: uint64(i)}, t, nil), simtest.SleepRand(eng, 9))
		}))
	}
	simtest.Seq(eng, "canceler", simtest.Sleep(eng, 7), simtest.Do(func() { tok.Cancel() }))
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return trace
}

// preRefactorTraces were recorded from the monolithic pre-MAC-refactor
// arbitration code (PR 2 state, commit 7a52ee1) with the scenario above.
// The default backoff MAC must reproduce them bit-for-bit: the refactor
// moved the arbitration logic behind the MAC interface without changing a
// single decision, random draw, or event position. The four scenarios
// cover the default configuration (two seeds) plus the DeferContend /
// BackoffPerMessage and BackoffAdaptive ablations, all of which are now
// served by the same backoff MAC implementation.
var preRefactorTraces = []struct {
	name string
	p    func() Params
	seed uint64
	want []string
}{
	{"default-s123", DefaultParams, 123, []string{
		"9.0@17", "10.0@22", "11.0@27", "14.0@32", "15.0@37", "2.0@42", "12.0@47", "13.0@52", "6.0@57", "3.0@62", "4.0@71", "5.0@80", "9.1@85", "10.1@90", "11.1@95", "15.1@100", "3.1@113", "0.0@120", "2.1@141", "4.1@154", "9.2@159", "10.2@164", "15.2@171", "5.1@176", "13.1@187", "7.0@192", "8.0@197", "3.2@208", "2.2@219", "14.1@226", "1.0@237", "3.3@244", "10.3@251", "6.1@260", "14.2@265", "2.3@270", "15.3@275", "5.2@280", "0.1@285", "1.1@290", "13.2@295", "9.3@300", "8.1@305", "6.2@310", "14.3@315", "12.1@320", "11.2@325", "7.1@330", "4.2@335", "0.2@342", "1.2@347", "8.2@354", "12.2@361", "4.3@368", "7.2@373", "5.3@378", "0.3@383", "13.3@388", "8.3@393", "12.3@398", "6.3@403", "7.3@408", "1.3@413", "11.3@418"}},
	{"default-s7", DefaultParams, 7, []string{
		"1.0@19", "7.0@26", "15.0@33", "6.0@38", "5.0@43", "12.0@48", "8.0@53", "3.0@58", "14.0@63", "9.0@68", "2.0@75", "13.0@80", "4.0@85", "1.1@90", "6.1@103", "5.1@108", "12.1@113", "8.1@118", "3.1@123", "9.1@128", "14.1@133", "2.1@138", "13.1@143", "0.0@150", "10.0@155", "11.0@162", "1.2@167", "6.2@172", "3.2@185", "9.2@190", "14.2@195", "13.2@200", "15.1@211", "12.2@224", "3.3@231", "7.1@238", "9.3@243", "13.3@250", "4.1@255", "10.1@264", "11.1@269", "12.3@274", "15.2@279", "2.2@284", "7.2@289", "6.3@294", "14.3@299", "4.2@304", "1.3@311", "5.2@318", "8.2@325", "15.3@330", "2.3@335", "7.3@340", "4.3@345", "8.3@352", "11.2@357", "5.3@362", "0.1@367", "10.2@372", "11.3@377", "0.2@382", "10.3@387", "0.3@394"}},
	{"contend-permsg-s123", func() Params {
		p := DefaultParams()
		p.Defer = DeferContend
		p.Backoff = BackoffPerMessage
		return p
	}, 123, []string{
		"13.0@17", "13.1@32", "0.0@42", "0.1@53", "10.0@62", "10.1@69", "0.2@78", "10.2@85", "0.3@92", "15.0@103", "15.1@110", "8.0@126", "8.1@141", "6.0@148", "8.2@169", "2.0@176", "3.0@192", "7.0@202", "7.1@224", "14.0@233", "10.3@240", "14.1@249", "6.1@267", "12.0@291", "4.0@298", "2.1@305", "5.0@314", "8.3@327", "2.2@334", "5.1@341", "11.0@348", "5.2@355", "9.0@372", "9.1@383", "9.2@395", "7.2@402", "9.3@410", "13.2@417", "1.0@428", "1.1@445", "14.2@450", "5.3@457", "14.3@464", "3.1@471", "3.2@480", "3.3@496", "11.1@503", "7.3@512", "11.2@519", "2.3@526", "11.3@533", "6.2@538", "1.2@545", "15.2@552", "15.3@563", "1.3@577", "12.1@582", "12.2@589", "13.3@594", "12.3@602", "6.3@615", "4.1@632", "4.2@638", "4.3@643"}},
	{"adaptive-backoff-s5", func() Params {
		p := DefaultParams()
		p.Backoff = BackoffAdaptive
		return p
	}, 5, []string{
		"2.0@13", "4.0@18", "5.0@23", "12.0@34", "13.0@39", "15.0@44", "3.0@53", "6.0@58", "1.0@63", "9.0@68", "14.0@77", "7.0@82", "5.1@91", "10.0@96", "13.1@101", "15.1@106", "11.0@111", "0.0@116", "3.1@121", "6.1@126", "1.1@131", "9.1@136", "2.1@141", "4.1@146", "5.2@159", "10.1@164", "13.2@169", "15.2@174", "11.1@179", "0.1@184", "14.1@199", "12.1@206", "4.2@211", "7.1@218", "10.2@223", "15.3@230", "1.2@239", "6.2@244", "2.2@249", "3.2@256", "4.3@261", "14.2@272", "11.2@279", "10.3@284", "13.3@289", "1.3@294", "6.3@299", "0.2@304", "9.2@309", "2.3@314", "3.3@319", "12.2@324", "7.2@329", "8.0@338", "11.3@343", "0.3@348", "9.3@353", "14.3@358", "7.3@363", "5.3@368", "12.3@373", "8.1@378", "8.2@388", "8.3@393"}},
}

// TestDefaultMACMatchesPreRefactorTraces proves the MAC extraction is
// behavior-preserving: the default (backoff) MAC reproduces the commit
// traces recorded before the arbitration logic moved behind the interface.
func TestDefaultMACMatchesPreRefactorTraces(t *testing.T) {
	for _, sc := range preRefactorTraces {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			got := commitTrace(sc.p(), sc.seed)
			if len(got) != len(sc.want) {
				t.Fatalf("trace length %d, want %d\n got: %v", len(got), len(sc.want), got)
			}
			for i := range got {
				if got[i] != sc.want[i] {
					t.Fatalf("trace[%d] = %s, want %s (default MAC diverged from pre-refactor arbitration)",
						i, got[i], sc.want[i])
				}
			}
		})
	}
}

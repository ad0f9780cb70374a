package logdata

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"radcrit/internal/fault"
)

// field is the free-text sanitiser the fmt encoder used, frozen with it.
func field(s string) string {
	if s == "" {
		return "-"
	}
	return strings.ReplaceAll(s, " ", "_")
}

// fmtWriteEvent is the fmt-based event encoder that writeEvent replaced,
// frozen verbatim as the byte-level oracle for the append-based one.
func fmtWriteEvent(bw *bufio.Writer, e Event) {
	switch e.Class {
	case fault.SDC:
		fmt.Fprintf(bw, "#SDC exec:%d resource:%s scope:%s count:%d\n",
			e.Exec, field(e.Resource), field(e.Scope), len(e.Mismatches))
		for _, m := range e.Mismatches {
			fmt.Fprintf(bw, "#ERR x:%d y:%d z:%d read:%s expected:%s\n",
				m.Coord.X, m.Coord.Y, m.Coord.Z,
				strconv.FormatFloat(m.Read, 'x', -1, 64),
				strconv.FormatFloat(m.Expected, 'x', -1, 64))
		}
	case fault.Crash:
		fmt.Fprintf(bw, "#CRASH exec:%d resource:%s\n", e.Exec, field(e.Resource))
	case fault.Hang:
		fmt.Fprintf(bw, "#HANG exec:%d resource:%s\n", e.Exec, field(e.Resource))
	}
}

// fmtCheckpoint is the fmt-based #CHK encoder that appendCheckpoint
// replaced, frozen likewise.
func fmtCheckpoint(bw *bufio.Writer, next, masked, sdc, due int) {
	fmt.Fprintf(bw, "#CHK next:%d masked:%d sdc:%d due:%d\n", next, masked, sdc, due)
}

package cli

import (
	"context"
	"flag"
	"fmt"
	"io"

	"radcrit/internal/api"
	"radcrit/internal/campaign"
	"radcrit/internal/service"
)

// SubmitFlags are the daemon-client flags shared by the campaign tools:
// with -submit the tool's effective plan — whether from -plan or from
// the individual flags — runs on a radcritd daemon instead of
// in-process, sharing the daemon's content-addressed result store with
// every other client. The summaries that come back are bit-identical to
// an in-process StreamRunner run (the daemon's acceptance contract).
type SubmitFlags struct {
	Addr     string
	Priority int
}

// Bind registers -submit and -priority on fs.
func (s *SubmitFlags) Bind(fs *flag.FlagSet) {
	fs.StringVar(&s.Addr, "submit", s.Addr,
		"run the plan on a radcritd daemon at `addr` (e.g. 127.0.0.1:8447) instead of in-process")
	fs.IntVar(&s.Priority, "priority", s.Priority,
		"queue priority when submitting to a daemon (higher runs first)")
}

// Active reports whether the tool should run remotely.
func (s *SubmitFlags) Active() bool { return s.Addr != "" }

// Run submits the plan, waits for the job to finish, and fetches its
// per-cell summaries.
func (s *SubmitFlags) Run(ctx context.Context, p *campaign.Plan) (*service.JobResult, error) {
	return api.NewClient(s.Addr).Run(ctx, p, s.Priority)
}

// PrintJobSummaries renders a daemon job result in the campaign tools'
// summary format, one block per cell.
func PrintJobSummaries(w io.Writer, res *service.JobResult) {
	fmt.Fprintf(w, "job %s: %s\n", res.ID, res.State)
	for i, c := range res.Cells {
		tag := ""
		if c.Cached {
			tag = " [store hit]"
		} else if c.Resumed {
			tag = " [resumed]"
		}
		if c.Error != "" {
			fmt.Fprintf(w, "cell %d (%s on %s): FAILED: %s\n", i, c.Spec.Kernel, c.Spec.Device, c.Error)
			continue
		}
		if c.Info == nil || c.Summary == nil {
			fmt.Fprintf(w, "cell %d (%s on %s): no summary\n", i, c.Spec.Kernel, c.Spec.Device)
			continue
		}
		sum := c.Summary
		fmt.Fprintf(w, "campaign: %s %s %s%s\n", c.Info.Device, c.Info.Kernel, c.Info.Input, tag)
		fmt.Fprintf(w, "  strikes:   %d over %.1f simulated beam hours\n",
			c.Info.Strikes, c.Info.Exposure.BeamHours)
		fmt.Fprintf(w, "  outcomes:  %d masked, %d SDC, %d crash, %d hang\n",
			sum.Tally.Masked, sum.Tally.SDC, sum.Tally.Crash, sum.Tally.Hang)
		for k, t := range sum.Thresholds {
			fmt.Fprintf(w, "  SDC FIT:   %.3g a.u. (threshold %g%%), %.0f%% filtered\n",
				sum.SDCFIT[k], t, 100*sum.FilteredFraction[k])
		}
		fmt.Fprintf(w, "  DUE FIT:   %.3g a.u.\n", sum.DUEFIT)
	}
}

// The host's current speed, measured with a fixed piece of the
// benchmark's own code.
//
// The shared host this benchmark runs on changes speed by up to ~2x for
// minutes at a time, and the program's passes slow down with it (see
// README.md, "Host noise"). The probe does a fixed amount of work of the
// kind the program does, none of it program code, so a change to the
// program never moves it, while a change of the host's level moves both.
#pragma once

namespace perfbench {

/// The probe's median time, in seconds, on the development host in its
/// usual state. Host-time metrics are scaled by this over the run's own
/// median probe time.
inline constexpr double kReferenceProbeS = 0.03;

/// Wall seconds for the probe's fixed work, run at once on `threads`
/// threads (each does the whole work), so that a multi-thread pass is
/// compared with a probe under the same contention.
double host_probe_s(unsigned threads);

}  // namespace perfbench

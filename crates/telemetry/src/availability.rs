//! Per-server availability accounting.
//!
//! §III-B2 of the paper measures "the percentage of time each server was
//! online daily" and finds an overall average of 83%, a large population at
//! 85% and 98%, and pools whose availability is consistent across their
//! servers (Fig. 15). Well-managed maintenance needs only ~2% downtime.
//!
//! Storage is aggregated per `(server, day)` so a 90-day fleet run fits in
//! memory: one pair of counters per server-day rather than one flag per
//! 120-second window.

use crate::ids::ServerId;
use crate::time::WindowIndex;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DayCounters {
    online: u32,
    total: u32,
}

/// Accumulates online/offline windows per server per day.
///
/// Servers are indexed by `ServerId.0` — fleets number their servers
/// densely from 0 — so recording a window is an indexed access, not a
/// hash, and memory grows with the largest id recorded. Each server's
/// days are kept ascending; a simulation records days in order, so the
/// current day is always the server's last entry.
///
/// # Example
///
/// ```
/// use headroom_telemetry::availability::AvailabilityLog;
/// use headroom_telemetry::ids::ServerId;
/// use headroom_telemetry::time::WindowIndex;
///
/// let mut log = AvailabilityLog::new();
/// // Three windows on day 0: online, online, offline.
/// log.record(ServerId(0), WindowIndex(0), true);
/// log.record(ServerId(0), WindowIndex(1), true);
/// log.record(ServerId(0), WindowIndex(2), false);
/// let avail = log.daily_availability(ServerId(0), 0).unwrap();
/// assert!((avail - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AvailabilityLog {
    /// Per server id, its `(day, counters)` ascending by day; empty for a
    /// server never recorded.
    days: Vec<Vec<(u64, DayCounters)>>,
    servers: Vec<ServerId>,
    /// Server-days recorded.
    records: usize,
}

impl AvailabilityLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        AvailabilityLog::default()
    }

    /// Records one window of a server's life.
    pub fn record(&mut self, server: ServerId, window: WindowIndex, online: bool) {
        let id = server.0 as usize;
        if id >= self.days.len() {
            self.days.resize_with(id + 1, Vec::new);
        }
        let days = &mut self.days[id];
        if days.is_empty() {
            self.servers.push(server);
        }
        let day = window.day();
        let at = match days.last() {
            Some(&(last, _)) if last == day => days.len() - 1,
            _ => {
                let at = days.partition_point(|&(d, _)| d < day);
                if days.get(at).is_none_or(|&(d, _)| d != day) {
                    days.insert(at, (day, DayCounters::default()));
                    self.records += 1;
                }
                at
            }
        };
        let counters = &mut days[at].1;
        counters.total += 1;
        if online {
            counters.online += 1;
        }
    }

    /// One server's recorded days, ascending (empty when never recorded).
    fn server_days(&self, server: ServerId) -> &[(u64, DayCounters)] {
        self.days.get(server.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// Fraction of recorded windows the server was online on `day`.
    pub fn daily_availability(&self, server: ServerId, day: u64) -> Option<f64> {
        let days = self.server_days(server);
        let at = days.binary_search_by_key(&day, |&(d, _)| d).ok()?;
        let c = days[at].1;
        (c.total > 0).then(|| c.online as f64 / c.total as f64)
    }

    /// Mean availability of the server across all recorded days, summed in
    /// day order.
    pub fn mean_availability(&self, server: ServerId) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (_, c) in self.server_days(server) {
            if c.total > 0 {
                sum += c.online as f64 / c.total as f64;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Every `(server, day, availability)` record — the Fig. 14 sample set,
    /// sorted by server then day.
    pub fn daily_records(&self) -> Vec<(ServerId, u64, f64)> {
        let mut records = Vec::with_capacity(self.records);
        for (id, days) in self.days.iter().enumerate() {
            for &(day, c) in days {
                if c.total > 0 {
                    records.push((ServerId(id as u32), day, c.online as f64 / c.total as f64));
                }
            }
        }
        records
    }

    /// Mean availability across a set of servers on one day — the Fig. 15
    /// per-pool daily series, given the pool's member list.
    pub fn pool_daily_availability(&self, members: &[ServerId], day: u64) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for &s in members {
            if let Some(a) = self.daily_availability(s, day) {
                sum += a;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Per-day pool availability over `days` days.
    pub fn pool_daily_series(&self, members: &[ServerId], days: u64) -> Vec<(u64, f64)> {
        (0..days).filter_map(|d| self.pool_daily_availability(members, d).map(|a| (d, a))).collect()
    }

    /// Fleet-wide mean of all per-server-day availabilities (the paper's
    /// headline "overall average availability was 83%").
    pub fn fleet_mean_availability(&self) -> Option<f64> {
        let records = self.daily_records();
        if records.is_empty() {
            return None;
        }
        Some(records.iter().map(|(_, _, a)| a).sum::<f64>() / records.len() as f64)
    }

    /// Servers with at least one recorded window, in first-seen order.
    pub fn servers(&self) -> &[ServerId] {
        &self.servers
    }

    /// Number of recorded server-days.
    pub fn record_count(&self) -> usize {
        self.records
    }
}

/// A summary of fleet availability split by cause, used by the optimizer's
/// "savings from improving server availability" analysis (§III-B2).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AvailabilityBreakdown {
    /// Mean fleet availability (0..=1).
    pub mean: f64,
    /// Availability of the best-managed population (the paper's 98%).
    pub well_managed: f64,
    /// Estimated overhead of unavoidable infrastructure maintenance
    /// (`1 - well_managed`, the paper's 2%).
    pub infrastructure_overhead: f64,
    /// Capacity reclaimable by lifting every pool to the well-managed level
    /// (`well_managed - mean`).
    pub improvable: f64,
}

impl AvailabilityBreakdown {
    /// Computes the breakdown from a log, taking the 90th percentile of
    /// per-server mean availability as the "well-managed" level (high
    /// enough to represent the best-run population, low enough that a few
    /// servers that happened to dodge every rotation don't pin the level at
    /// a meaningless 100%).
    ///
    /// Returns `None` when the log is empty.
    pub fn from_log(log: &AvailabilityLog) -> Option<Self> {
        let mut per_server: Vec<f64> =
            log.servers().iter().filter_map(|&s| log.mean_availability(s)).collect();
        if per_server.is_empty() {
            return None;
        }
        per_server.sort_by(|a, b| a.partial_cmp(b).expect("availability is finite"));
        let well_managed = headroom_stats::percentile::percentile_of_sorted(&per_server, 90.0);
        let mean = log.fleet_mean_availability()?;
        Some(AvailabilityBreakdown {
            mean,
            well_managed,
            infrastructure_overhead: 1.0 - well_managed,
            improvable: (well_managed - mean).max(0.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::WINDOWS_PER_DAY;

    #[test]
    fn daily_availability_fraction() {
        let mut log = AvailabilityLog::new();
        for w in 0..10u64 {
            log.record(ServerId(1), WindowIndex(w), w < 8);
        }
        assert_eq!(log.daily_availability(ServerId(1), 0), Some(0.8));
        assert_eq!(log.daily_availability(ServerId(1), 1), None);
        assert_eq!(log.daily_availability(ServerId(9), 0), None);
    }

    #[test]
    fn windows_split_across_days() {
        let mut log = AvailabilityLog::new();
        log.record(ServerId(0), WindowIndex(WINDOWS_PER_DAY - 1), true);
        log.record(ServerId(0), WindowIndex(WINDOWS_PER_DAY), false);
        assert_eq!(log.daily_availability(ServerId(0), 0), Some(1.0));
        assert_eq!(log.daily_availability(ServerId(0), 1), Some(0.0));
    }

    #[test]
    fn mean_availability_across_days() {
        let mut log = AvailabilityLog::new();
        // Day 0: 100%, day 1: 50%.
        log.record(ServerId(0), WindowIndex(0), true);
        log.record(ServerId(0), WindowIndex(WINDOWS_PER_DAY), true);
        log.record(ServerId(0), WindowIndex(WINDOWS_PER_DAY + 1), false);
        assert_eq!(log.mean_availability(ServerId(0)), Some(0.75));
    }

    #[test]
    fn pool_daily_series() {
        let mut log = AvailabilityLog::new();
        let members = [ServerId(0), ServerId(1)];
        for day in 0..3u64 {
            for &s in &members {
                let w = WindowIndex(day * WINDOWS_PER_DAY);
                log.record(s, w, true);
                log.record(s, WindowIndex(w.0 + 1), s == ServerId(0));
            }
        }
        let series = log.pool_daily_series(&members, 3);
        assert_eq!(series.len(), 3);
        for (_, a) in series {
            assert!((a - 0.75).abs() < 1e-12);
        }
    }

    #[test]
    fn fleet_mean() {
        let mut log = AvailabilityLog::new();
        log.record(ServerId(0), WindowIndex(0), true);
        log.record(ServerId(1), WindowIndex(0), false);
        assert_eq!(log.fleet_mean_availability(), Some(0.5));
        assert_eq!(log.record_count(), 2);
        assert_eq!(log.servers().len(), 2);
    }

    #[test]
    fn empty_log_returns_none() {
        let log = AvailabilityLog::new();
        assert_eq!(log.fleet_mean_availability(), None);
        assert!(AvailabilityBreakdown::from_log(&log).is_none());
    }

    #[test]
    fn breakdown_matches_paper_structure() {
        let mut log = AvailabilityLog::new();
        // 18 well-managed servers at 98%, 2 poorly-managed at 60%.
        for i in 0..20u32 {
            let target = if i < 18 { 0.98 } else { 0.60 };
            for w in 0..100u64 {
                let online = (w as f64 / 100.0) < target;
                log.record(ServerId(i), WindowIndex(w), online);
            }
        }
        let b = AvailabilityBreakdown::from_log(&log).unwrap();
        assert!((b.well_managed - 0.98).abs() < 0.01);
        assert!((b.infrastructure_overhead - 0.02).abs() < 0.01);
        assert!(b.mean < b.well_managed);
        assert!(b.improvable > 0.0);
    }

    #[test]
    fn out_of_order_days_and_first_seen_servers() {
        let mut log = AvailabilityLog::new();
        // Server 5 first, then 2; server 5's days arrive out of order.
        log.record(ServerId(5), WindowIndex(2 * WINDOWS_PER_DAY), true);
        log.record(ServerId(2), WindowIndex(0), false);
        log.record(ServerId(5), WindowIndex(0), false);
        log.record(ServerId(5), WindowIndex(2 * WINDOWS_PER_DAY + 1), false);
        log.record(ServerId(5), WindowIndex(WINDOWS_PER_DAY), true);
        assert_eq!(log.servers(), &[ServerId(5), ServerId(2)]);
        assert_eq!(log.record_count(), 4);
        assert_eq!(log.daily_availability(ServerId(5), 2), Some(0.5));
        assert_eq!(log.daily_availability(ServerId(3), 0), None, "unseen id below the max");
        assert_eq!(
            log.daily_records(),
            vec![
                (ServerId(2), 0, 0.0),
                (ServerId(5), 0, 0.0),
                (ServerId(5), 1, 1.0),
                (ServerId(5), 2, 0.5),
            ]
        );
        // Summed in day order: (0.0 + 1.0 + 0.5) / 3.
        assert_eq!(log.mean_availability(ServerId(5)), Some(1.5 / 3.0));
    }

    #[test]
    fn daily_records_sorted() {
        let mut log = AvailabilityLog::new();
        log.record(ServerId(1), WindowIndex(WINDOWS_PER_DAY), true);
        log.record(ServerId(0), WindowIndex(0), true);
        let records = log.daily_records();
        assert_eq!(records[0].0, ServerId(0));
        assert_eq!(records[1].0, ServerId(1));
    }
}

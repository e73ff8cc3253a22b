//! Datacenters and fleet assembly.
//!
//! The paper's service spans nine datacenters in distinct geographic regions;
//! each region's demand peaks at a different UTC hour, which is what makes
//! the *global* fleet look half-idle while individual datacenters saturate.

use headroom_telemetry::ids::{DatacenterId, PoolId, ServerId};
use headroom_workload::DiurnalCurve;

use crate::catalog::{MicroserviceKind, ServiceSpec};
use crate::error::ClusterError;
use crate::failure::FailureModel;
use crate::maintenance::MaintenancePlan;
use crate::pool::Pool;
use crate::server::Server;

/// One datacenter: identity, regional phase, and routing weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Datacenter {
    /// Identity (displayed as `DC1`…`DC9` like the paper).
    pub id: DatacenterId,
    /// UTC hour at which this region's demand peaks.
    pub peak_hour_utc: f64,
    /// Relative share of global demand served here.
    pub weight: f64,
    /// Network-shape factor for Fig. 2's cross-DC variation.
    pub net_scale: f64,
}

/// The simulated fleet: datacenters plus pools.
///
/// Pool ids are dense: `pools()[i].id == PoolId(i)`. [`FleetBuilder`]
/// assigns ids in deployment order and nothing adds, removes or reorders
/// pools afterwards, so [`Fleet::pool`] and [`Fleet::pool_mut`] index
/// directly instead of scanning (the reconciler looks up every managed
/// pool every window).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Fleet {
    datacenters: Vec<Datacenter>,
    pools: Vec<Pool>,
}

impl Fleet {
    /// The datacenters.
    pub fn datacenters(&self) -> &[Datacenter] {
        &self.datacenters
    }

    /// All pools.
    pub fn pools(&self) -> &[Pool] {
        &self.pools
    }

    /// Mutable access to all pools (used by the simulation engine).
    pub(crate) fn pools_mut(&mut self) -> &mut [Pool] {
        &mut self.pools
    }

    /// Looks up a pool in constant time; `None` for an id not in the fleet.
    pub fn pool(&self, id: PoolId) -> Option<&Pool> {
        self.pools.get(id.0 as usize).filter(|p| p.id == id)
    }

    /// Mutable pool lookup, in constant time like [`Fleet::pool`].
    pub fn pool_mut(&mut self, id: PoolId) -> Option<&mut Pool> {
        self.pools.get_mut(id.0 as usize).filter(|p| p.id == id)
    }

    /// Pools running `service`, ordered by datacenter.
    pub fn pools_of_service(&self, service: MicroserviceKind) -> Vec<PoolId> {
        let mut ids: Vec<(DatacenterId, PoolId)> = self
            .pools
            .iter()
            .filter(|p| p.service == service)
            .map(|p| (p.datacenter, p.id))
            .collect();
        ids.sort();
        ids.into_iter().map(|(_, p)| p).collect()
    }

    /// A datacenter by id.
    pub fn datacenter(&self, id: DatacenterId) -> Option<&Datacenter> {
        self.datacenters.iter().find(|d| d.id == id)
    }

    /// Total servers across all pools.
    pub fn server_count(&self) -> usize {
        self.pools.iter().map(Pool::size).sum()
    }
}

/// Incrementally assembles a [`Fleet`].
///
/// # Example
///
/// ```
/// use headroom_cluster::catalog::MicroserviceKind;
/// use headroom_cluster::topology::FleetBuilder;
///
/// # fn main() -> Result<(), headroom_cluster::ClusterError> {
/// let fleet = FleetBuilder::new(42)
///     .datacenters(3)
///     .deploy_service(MicroserviceKind::B, 20)?
///     .build();
/// assert_eq!(fleet.datacenters().len(), 3);
/// assert_eq!(fleet.pools().len(), 3);
/// // Pool sizes follow regional demand weights: 20 + 18 + 15.
/// assert_eq!(fleet.server_count(), 53);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FleetBuilder {
    seed: u64,
    datacenters: Vec<Datacenter>,
    pools: Vec<Pool>,
    next_pool: u32,
    next_server: u32,
    failures: Option<FailureModel>,
    incidents: bool,
}

/// Peak hours (UTC) for up to nine staggered regions.
const REGION_PEAK_HOURS: [f64; 9] = [14.0, 17.0, 20.0, 23.0, 2.0, 5.0, 8.0, 11.0, 15.5];
/// Routing weights for up to nine regions (larger markets first).
const REGION_WEIGHTS: [f64; 9] = [1.0, 0.9, 0.75, 0.6, 0.8, 0.7, 0.65, 0.55, 0.5];

impl FleetBuilder {
    /// Creates a builder; `seed` drives every stochastic choice downstream.
    pub fn new(seed: u64) -> Self {
        FleetBuilder {
            seed,
            datacenters: Vec::new(),
            pools: Vec::new(),
            next_pool: 0,
            next_server: 0,
            failures: Some(FailureModel::typical(seed ^ 0xFA11)),
            incidents: true,
        }
    }

    /// Adds `n` datacenters (max 9) with staggered regional peaks.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` or `n > 9`.
    pub fn datacenters(mut self, n: usize) -> Self {
        assert!((1..=9).contains(&n), "1..=9 datacenters supported");
        self.datacenters = (0..n)
            .map(|i| Datacenter {
                id: DatacenterId(i as u16),
                peak_hour_utc: REGION_PEAK_HOURS[i],
                weight: REGION_WEIGHTS[i],
                net_scale: 0.85 + 0.3 * (i as f64 / 8.0),
            })
            .collect();
        self
    }

    /// Disables unplanned server failures.
    pub fn without_failures(mut self) -> Self {
        self.failures = None;
        self
    }

    /// Disables maintenance incident days (clean pools for forecasting
    /// experiments).
    pub fn without_incidents(mut self) -> Self {
        self.incidents = false;
        self
    }

    /// Deploys `service` into every datacenter with `servers_per_pool`
    /// servers per pool, using the catalog spec for everything else.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidConfig`] when no datacenters were added or
    /// `servers_per_pool == 0`.
    pub fn deploy_service(
        self,
        service: MicroserviceKind,
        servers_per_pool: usize,
    ) -> Result<Self, ClusterError> {
        let spec = service.spec();
        self.deploy_with_spec(&spec, servers_per_pool, spec.peak_rps_per_server)
    }

    /// Deploys with an explicit spec and peak RPS/server (for experiments
    /// that need custom response models or headroom levels).
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidConfig`] when no datacenters were added or
    /// `servers_per_pool == 0`.
    pub fn deploy_with_spec(
        mut self,
        spec: &ServiceSpec,
        servers_per_pool: usize,
        peak_rps_per_server: f64,
    ) -> Result<Self, ClusterError> {
        if self.datacenters.is_empty() {
            return Err(ClusterError::InvalidConfig("add datacenters before deploying services"));
        }
        if servers_per_pool == 0 {
            return Err(ClusterError::InvalidConfig("servers_per_pool must be positive"));
        }
        let dcs = self.datacenters.clone();
        let max_weight = dcs.iter().map(|d| d.weight).fold(f64::NEG_INFINITY, f64::max);
        for dc in &dcs {
            let pool_id = PoolId(self.next_pool);
            self.next_pool += 1;
            // Pool size follows the region's demand share, so every pool
            // carries the same peak RPS/server (service owners size each
            // region's pool for its own market).
            let pool_servers =
                ((servers_per_pool as f64 * dc.weight / max_weight).round() as usize).max(2);
            let servers: Vec<Server> = (0..pool_servers)
                .map(|i| {
                    let id = ServerId(self.next_server + i as u32);
                    Server::new(id, spec.generation_for(i, pool_servers))
                })
                .collect();
            self.next_server += pool_servers as u32;

            // Demand peaks at the regional peak hour, scaled so the pool
            // reaches the target peak RPS/server.
            let peak_total = peak_rps_per_server * pool_servers as f64;
            let demand = DiurnalCurve::new(1.0)
                .with_peak_hour(dc.peak_hour_utc)
                .with_noise(0.03)
                .with_peak_demand(peak_total);

            let mut plan = MaintenancePlan::new(
                spec.practice,
                crate::maintenance::hash2(self.seed, pool_id.0 as u64),
            );
            if !self.incidents {
                plan = plan.without_incidents();
            }

            self.pools.push(Pool {
                id: pool_id,
                datacenter: dc.id,
                service: spec.kind,
                model: spec.model.clone(),
                servers,
                demand,
                maintenance: plan,
                failures: self.failures,
                net_scale: dc.net_scale,
                local_hour_offset: (14.0 - dc.peak_hour_utc).rem_euclid(24.0),
            });
        }
        Ok(self)
    }

    /// Finalises the fleet.
    pub fn build(self) -> Fleet {
        Fleet { datacenters: self.datacenters, pools: self.pools }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_unique_ids() {
        let fleet = FleetBuilder::new(1)
            .datacenters(3)
            .deploy_service(MicroserviceKind::B, 10)
            .unwrap()
            .deploy_service(MicroserviceKind::D, 5)
            .unwrap()
            .build();
        assert_eq!(fleet.pools().len(), 6);
        let mut server_ids: Vec<u32> =
            fleet.pools().iter().flat_map(|p| p.server_ids()).map(|s| s.0).collect();
        let before = server_ids.len();
        server_ids.sort_unstable();
        server_ids.dedup();
        assert_eq!(server_ids.len(), before, "server ids must be unique");
        // Weighted sizes: B 10+9+8, D 5+5+4.
        assert_eq!(before, 41);
    }

    #[test]
    fn pool_ids_are_dense_across_deployments() {
        let mut fleet = FleetBuilder::new(3)
            .datacenters(4)
            .deploy_service(MicroserviceKind::A, 3)
            .unwrap()
            .deploy_service(MicroserviceKind::G, 2)
            .unwrap()
            .deploy_service(MicroserviceKind::B, 5)
            .unwrap()
            .build();
        let n = fleet.pools().len();
        assert_eq!(n, 12);
        for (i, pool) in fleet.pools().iter().enumerate() {
            assert_eq!(pool.id, PoolId(i as u32), "pools[{i}] carries PoolId({i})");
        }
        for i in 0..n as u32 {
            assert_eq!(fleet.pool(PoolId(i)).map(|p| p.id), Some(PoolId(i)));
            assert_eq!(fleet.pool_mut(PoolId(i)).map(|p| p.id), Some(PoolId(i)));
        }
        for unknown in [PoolId(n as u32), PoolId(u32::MAX)] {
            assert!(fleet.pool(unknown).is_none());
            assert!(fleet.pool_mut(unknown).is_none());
        }
    }

    #[test]
    fn deploy_without_datacenters_fails() {
        let err = FleetBuilder::new(0).deploy_service(MicroserviceKind::A, 5).unwrap_err();
        assert!(matches!(err, ClusterError::InvalidConfig(_)));
    }

    #[test]
    fn zero_servers_rejected() {
        let err =
            FleetBuilder::new(0).datacenters(1).deploy_service(MicroserviceKind::A, 0).unwrap_err();
        assert!(matches!(err, ClusterError::InvalidConfig(_)));
    }

    #[test]
    fn pools_of_service_sorted_by_dc() {
        let fleet = FleetBuilder::new(1)
            .datacenters(4)
            .deploy_service(MicroserviceKind::G, 3)
            .unwrap()
            .build();
        let pools = fleet.pools_of_service(MicroserviceKind::G);
        assert_eq!(pools.len(), 4);
        for (i, p) in pools.iter().enumerate() {
            assert_eq!(fleet.pool(*p).unwrap().datacenter, DatacenterId(i as u16));
        }
        assert!(fleet.pools_of_service(MicroserviceKind::A).is_empty());
    }

    #[test]
    fn regional_peaks_are_staggered() {
        let fleet = FleetBuilder::new(1)
            .datacenters(9)
            .deploy_service(MicroserviceKind::E, 2)
            .unwrap()
            .build();
        let mut hours: Vec<f64> = fleet.datacenters().iter().map(|d| d.peak_hour_utc).collect();
        hours.sort_by(|a, b| a.partial_cmp(b).unwrap());
        hours.dedup();
        assert_eq!(hours.len(), 9, "all nine regions peak at distinct hours");
    }

    #[test]
    fn every_pool_reaches_target_peak_rps_per_server() {
        let fleet = FleetBuilder::new(1)
            .datacenters(2)
            .deploy_service(MicroserviceKind::B, 10)
            .unwrap()
            .build();
        // DC0 (weight 1.0) gets 10 servers; DC1 (weight 0.9) gets 9 — and
        // both run at the same target peak RPS/server.
        let pool = &fleet.pools()[0];
        assert_eq!(pool.size(), 10);
        assert!((pool.demand.peak_demand() / 10.0 - 380.0).abs() < 1.0);
        let pool2 = &fleet.pools()[1];
        assert_eq!(pool2.size(), 9);
        assert!((pool2.demand.peak_demand() / 9.0 - 380.0).abs() < 1.0);
    }

    #[test]
    fn local_hour_offset_puts_peak_at_2pm_local() {
        let fleet = FleetBuilder::new(1)
            .datacenters(5)
            .deploy_service(MicroserviceKind::B, 4)
            .unwrap()
            .build();
        for pool in fleet.pools() {
            let dc = fleet.datacenter(pool.datacenter).unwrap();
            let local_at_peak = pool.local_hour(dc.peak_hour_utc);
            assert!((local_at_peak - 14.0).abs() < 1e-9, "peak should be 14:00 local");
        }
    }

    #[test]
    fn without_failures_clears_model() {
        let fleet = FleetBuilder::new(1)
            .datacenters(1)
            .without_failures()
            .deploy_service(MicroserviceKind::A, 3)
            .unwrap()
            .build();
        assert!(fleet.pools()[0].failures.is_none());
    }
}

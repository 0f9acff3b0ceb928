//! A cost model of the *traditional* container hosting WSPeer rejects
//! — the baseline of experiment E5 ([`crate::e5`]), its one user.
//!
//! Section III, point 2 of the paper contrasts WSPeer's container-less
//! hosting with "the traditional scenario \[where\] a user deploys a
//! module into a container and the container manages the requests".
//! To measure that contrast (experiment E5) we model a
//! Tomcat/Axis-style container as virtual-time costs: a heavyweight
//! startup, a per-module deployment cost, and (for the classic
//! redeploy-requires-restart configuration) a restart on every change.
//!
//! Default constants are of the order reported for 2004-era Tomcat/Axis
//! deployments (multi-second container start, seconds per WAR deploy);
//! they are parameters, not measurements — the *shape* (orders of
//! magnitude above in-process deployment) is what E5 relies on.

use wsp_simnet::Dur;

/// Cost parameters of the modelled container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContainerModel {
    /// Cold-start time of the container process (JVM + webapp scan).
    pub startup: Dur,
    /// Additional time to deploy one module.
    pub per_module_deploy: Dur,
    /// Whether deploying a module requires a full container restart
    /// (the conservative production configuration of the era).
    pub restart_on_deploy: bool,
}

impl Default for ContainerModel {
    fn default() -> Self {
        ContainerModel {
            startup: Dur::secs(8),
            per_module_deploy: Dur::millis(1500),
            restart_on_deploy: true,
        }
    }
}

impl ContainerModel {
    /// Hot-deploy variant: no restart, but still a heavyweight deploy.
    pub fn hot_deploy() -> Self {
        ContainerModel {
            restart_on_deploy: false,
            ..ContainerModel::default()
        }
    }

    /// Virtual time from "deploy requested" to "service reachable",
    /// given the number of modules already deployed (restarts rescan
    /// everything).
    pub fn time_to_available(&self, existing_modules: usize, container_running: bool) -> Dur {
        let mut total = Dur::ZERO;
        let needs_start = !container_running || self.restart_on_deploy;
        if needs_start {
            total = total + self.startup;
            // A restart re-deploys every existing module too.
            total = total + Dur(self.per_module_deploy.0 * existing_modules as u64);
        }
        total + self.per_module_deploy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_deploy_cost_includes_startup() {
        let m = ContainerModel::default();
        let cost = m.time_to_available(0, false);
        assert_eq!(cost, Dur::secs(8) + Dur::millis(1500));
    }

    #[test]
    fn restart_on_deploy_redeploys_existing_modules() {
        let m = ContainerModel::default();
        let cost = m.time_to_available(3, true);
        // startup + 3 existing redeploys + the new module.
        assert_eq!(cost, Dur::secs(8) + Dur::millis(1500 * 4));
    }

    #[test]
    fn hot_deploy_skips_restart_when_running() {
        let m = ContainerModel::hot_deploy();
        assert_eq!(m.time_to_available(3, true), Dur::millis(1500));
        // But a cold container must still start.
        assert_eq!(
            m.time_to_available(0, false),
            Dur::secs(8) + Dur::millis(1500)
        );
    }
}

include Relpipe_obs.Json

import env

env.bootstrap()
